package gb_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/gb"
)

// fastScenario is a sweep small enough for unit tests but with several
// cells, so streaming order and cancellation have something to bite on.
func fastScenario(t *testing.T) *gb.Scenario {
	t.Helper()
	sc, err := gb.ParseScenario(strings.NewReader(`{
		"name": "fast",
		"cluster": {"profile": "gideon"},
		"workload": {"kind": "synthetic", "iters": 6, "mflopsPerIter": 20},
		"scales": [4, 8],
		"modes": ["GP", "GP1"],
		"checkpoint": {"atS": 0.5},
		"reps": 2,
		"seed": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestSweepStreamsEveryCell: the iterator must yield exactly the matrix,
// each cell carrying a full Result.
func TestSweepStreamsEveryCell(t *testing.T) {
	sc := fastScenario(t)
	want := len(sc.Cells())
	seen := map[string]bool{}
	for cell, err := range gb.Sweep(context.Background(), sc, gb.WithWorkers(3)) {
		if err != nil {
			t.Fatal(err)
		}
		if cell.Result == nil || cell.Result.ExecTime <= 0 {
			t.Fatalf("cell %+v has no result", cell.Cell)
		}
		key := cell.Mode + string(rune(cell.Scale)) + string(rune(cell.Rep))
		if seen[key] {
			t.Fatalf("cell %+v yielded twice", cell.Cell)
		}
		seen[key] = true
	}
	if len(seen) != want {
		t.Fatalf("streamed %d cells, want %d", len(seen), want)
	}
}

// TestSweepMatchesTable: folding streamed cells must agree with the
// aggregate SweepTable row count, and SweepTable must be byte-identical
// at different worker counts.
func TestSweepMatchesTable(t *testing.T) {
	sc := fastScenario(t)
	serial, err := gb.SweepTable(context.Background(), sc, gb.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := gb.SweepTable(context.Background(), sc, gb.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatal("worker count changed the rendered table")
	}
	if got, want := len(serial.Rows), len(sc.Scales)*len(sc.Modes); got != want {
		t.Fatalf("table has %d rows, want %d", got, want)
	}
}

// TestSweepCellMetrics: WithCellMetrics gives every yielded cell its own
// metrics snapshot, without changing the aggregate table, and is rejected
// on a single Run.
func TestSweepCellMetrics(t *testing.T) {
	sc := fastScenario(t)
	plain, err := gb.SweepTable(context.Background(), sc, gb.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for cell, err := range gb.Sweep(context.Background(), sc, gb.WithWorkers(2), gb.WithCellMetrics()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		m := cell.Result.Metrics
		if m == nil {
			t.Fatalf("cell %+v has no metrics snapshot", cell.Cell)
		}
		if sends, ok := m.Counter("mpi_sends_total"); !ok || sends == 0 {
			t.Fatalf("cell %+v: mpi_sends_total = %d, %v", cell.Cell, sends, ok)
		}
		if ckpts, _ := m.Counter("ckpt_completed_total"); ckpts == 0 {
			t.Fatalf("cell %+v checkpointed but ckpt_completed_total is 0", cell.Cell)
		}
	}
	if want := len(sc.Cells()); n != want {
		t.Fatalf("streamed %d cells, want %d", n, want)
	}
	metered, err := gb.SweepTable(context.Background(), sc, gb.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != metered.String() {
		t.Fatal("metrics-armed sweep changed the aggregate table")
	}

	if _, err := gb.Run(context.Background(), gb.Synthetic(2, 5), gb.WithCellMetrics()); !errors.Is(err, gb.ErrBadSpec) {
		t.Fatalf("WithCellMetrics on Run: got %v, want ErrBadSpec", err)
	}
}

// TestCellMetricsRejectsJobStreams: a cluster cell runs a stream of jobs,
// each a simulation of its own, so it has no one metrics snapshot.
// WithCellMetrics on such a scenario is a bad spec for Sweep, SweepTable
// and RunCell alike, where it used to yield cells with nil Metrics; the
// same sweep without it runs.
func TestCellMetricsRejectsJobStreams(t *testing.T) {
	ctx := context.Background()
	sc, err := gb.ParseScenario(strings.NewReader(`{
		"name": "tiny-jobs",
		"scales": [16],
		"modes": ["GP"],
		"jobs": {"count": 2, "meanInterarrivalS": 1,
			"templates": [{"kind": "synthetic", "iters": 2, "ranks": 4}]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := gb.ScenarioCells(sc)
	if err != nil {
		t.Fatal(err)
	}
	bad := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, gb.ErrBadSpec) || !strings.Contains(err.Error(), "jobs") {
			t.Errorf("%s with WithCellMetrics on a jobs scenario: got %v, want ErrBadSpec naming the jobs", what, err)
		}
	}
	for _, err := range gb.Sweep(ctx, sc, gb.WithCellMetrics()) {
		bad("Sweep", err)
	}
	_, err = gb.SweepTable(ctx, sc, gb.WithCellMetrics())
	bad("SweepTable", err)
	_, err = gb.RunCell(ctx, sc, cells[0], gb.WithCellMetrics())
	bad("RunCell", err)
	if _, err := gb.RunCell(ctx, sc, cells[0]); err != nil {
		t.Fatalf("RunCell without WithCellMetrics: %v", err)
	}
}

// TestSweepSeedOverride: WithSeed must change cell seeds without touching
// the caller's spec.
func TestSweepSeedOverride(t *testing.T) {
	sc := fastScenario(t)
	was := sc.Seed
	var defaultSeed, overridden int64
	for cell, err := range gb.Sweep(context.Background(), sc, gb.WithWorkers(1)) {
		if err != nil {
			t.Fatal(err)
		}
		defaultSeed = cell.Seed
		break
	}
	for cell, err := range gb.Sweep(context.Background(), sc, gb.WithWorkers(1), gb.WithSeed(99)) {
		if err != nil {
			t.Fatal(err)
		}
		overridden = cell.Seed
		break
	}
	if sc.Seed != was {
		t.Fatalf("Sweep mutated the caller's spec seed: %d → %d", was, sc.Seed)
	}
	if defaultSeed == overridden {
		t.Fatalf("seed override had no effect (both %d)", defaultSeed)
	}
}

// TestSweepCancellation cancels mid-sweep: the iterator must surface
// ErrCanceled and leak nothing.
func TestSweepCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := fastScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	var got error
	n := 0
	for cell, err := range gb.Sweep(ctx, sc, gb.WithWorkers(2)) {
		if err != nil {
			got = err
			break
		}
		_ = cell
		n++
		cancel()
	}
	cancel()
	if got == nil {
		t.Fatalf("sweep of %d cells finished cleanly despite cancel after cell 1 (%d yielded)",
			len(sc.Cells()), n)
	}
	if !errors.Is(got, gb.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", got)
	}
	if after := settleGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestSweepEarlyBreak: breaking out of the iterator must cancel the
// remaining cells and leak nothing.
func TestSweepEarlyBreak(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := fastScenario(t)
	for cell, err := range gb.Sweep(context.Background(), sc, gb.WithWorkers(2)) {
		if err != nil {
			t.Fatal(err)
		}
		_ = cell
		break
	}
	if after := settleGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestSweepTableCancellationSentinel: a cancel observed at the worker-pool
// level (here: before any cell starts) must still wrap ErrCanceled — the
// facade's contract is one sentinel wherever the cancel lands.
func TestSweepTableCancellationSentinel(t *testing.T) {
	sc := fastScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := gb.SweepTable(ctx, sc, gb.WithWorkers(2))
	if !errors.Is(err, gb.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestSweepCellErrorStopsIteration: a failing cell is yielded once with
// its coordinates, then iteration ends.
func TestSweepCellErrorStopsIteration(t *testing.T) {
	sc := fastScenario(t)
	yields := 0
	var cellErr error
	for cell, err := range gb.Sweep(context.Background(), sc,
		gb.WithWorkers(2), gb.WithHorizon(gb.Millisecond)) {
		yields++
		if err == nil {
			t.Fatalf("cell %+v succeeded under a 1ms horizon", cell.Cell)
		}
		cellErr = err
	}
	if yields != 1 {
		t.Fatalf("iterator yielded %d times after the first error, want 1", yields)
	}
	if !errors.Is(cellErr, gb.ErrHorizon) {
		t.Fatalf("got %v, want ErrHorizon", cellErr)
	}
}

// TestCheckFacade: the randomized invariant oracle is reachable through
// the facade and holds on a generated scenario.
func TestCheckFacade(t *testing.T) {
	sc := gb.GenerateScenario(1, 32)
	rep := gb.CheckScenario(context.Background(), sc, gb.CheckConfig{Workers: 2, SkipDeterminism: true})
	if !rep.Ok() {
		t.Fatalf("invariants violated: %v", rep.Violations)
	}
	if rep.Cells == 0 {
		t.Fatal("oracle ran no cells")
	}
}

// TestExperimentRegistryFacade: the registry is reachable and runs with a
// context.
func TestExperimentRegistryFacade(t *testing.T) {
	if len(gb.ExperimentIDs()) == 0 {
		t.Fatal("no experiments registered")
	}
	e, ok := gb.LookupExperiment("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tables, err := e.Run(ctx, gb.ExperimentOptions{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Fatal("fig5 produced no rows")
	}
}

// TestCellMetricsIdenticalAtEveryRunWorkers: a partitioned cell's metrics
// snapshot is the same whole at every worker count. Pool members deliver
// messages from concurrent partitions, so the message-latency histogram,
// whose float sum and reservoir depend on the order of observations, must
// be fed in an order the workers cannot change. GOMAXPROCS is raised to 4
// so that a 2-core host still runs pools of 2 and 4 members.
func TestCellMetricsIdenticalAtEveryRunWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sc, err := gb.ParseScenario(strings.NewReader(`{
		"name": "gp1-2k-metrics",
		"cluster": {"profile": "modern"},
		"workload": {"kind": "synthetic", "iters": 4},
		"scales": [2048],
		"modes": ["GP1"],
		"reps": 1,
		"seed": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := gb.ScenarioCells(sc)
	if err != nil || len(cells) != 1 {
		t.Fatalf("ScenarioCells = %v, %v; want one cell", cells, err)
	}
	var want *gb.Result
	for _, workers := range []int{1, 2, 4} {
		res, err := gb.RunCell(context.Background(), sc, cells[0], gb.WithCellMetrics(), gb.WithRunWorkers(workers))
		if err != nil {
			t.Fatalf("RunWorkers %d: %v", workers, err)
		}
		if res.Metrics == nil {
			t.Fatalf("RunWorkers %d: no metrics snapshot", workers)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res.Metrics, want.Metrics) {
			for i, h := range res.Metrics.Histograms {
				if i < len(want.Metrics.Histograms) && !reflect.DeepEqual(h, want.Metrics.Histograms[i]) {
					t.Errorf("RunWorkers %d: %s sum %v, want %v at RunWorkers 1", workers, h.Name, h.Sum, want.Metrics.Histograms[i].Sum)
				}
			}
			t.Errorf("RunWorkers %d: metrics snapshot differs from RunWorkers 1", workers)
		}
	}
}
