package tune

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// surfaceSpec is the test bed: a real (validatable) base scenario with a
// synthetic workload and a failure process, searched over a grid with a
// planted optimum at GP g8 t4 local.
func surfaceSpec() *Spec {
	return &Spec{
		Base: &scenario.Spec{
			Name:       "surface",
			Workload:   scenario.WorkloadSpec{Kind: "synthetic"},
			Modes:      []string{"GP", "NORM"},
			Checkpoint: scenario.CheckpointSpec{IntervalS: 2},
			Failures:   &scenario.FailureSpec{Process: "poisson", MTBFS: 5},
		},
		Objective:  "lost",
		Modes:      []string{"GP", "NORM"},
		GroupMax:   []int{2, 4, 8, 16},
		IntervalsS: []float64{1, 2, 4, 8},
		Storage:    []Storage{{}, {RemoteServers: 2}},
		Rungs: []Rung{
			{Scale: 16, Reps: 1},
			{Scale: 64, Reps: 2},
			{Scale: 256, Reps: 2},
		},
		Eta: 3,
	}
}

// surfaceRunner scores candidates on a deterministic bowl centered at
// GP g8 t4 local, with seed-hashed noise that shrinks as the rung scale
// grows — the successive-halving shape: cheap rungs are noisy, the final
// rung resolves the true optimum.
func surfaceRunner(t *testing.T) Runner {
	return func(_ context.Context, ev Eval) ([]scenario.Summary, error) {
		sp := ev.Spec
		if len(sp.Scales) != 1 || len(sp.Modes) != 1 {
			t.Errorf("eval spec not single-candidate: scales %v modes %v", sp.Scales, sp.Modes)
		}
		v := 10.0
		v += sq(math.Log2(sp.Checkpoint.IntervalS) - math.Log2(4))
		if sp.Modes[0] == "GP" {
			v += sq(math.Log2(float64(sp.GroupMax)) - math.Log2(8))
		} else {
			v += 5 // NORM rolls back everything: never optimal here
		}
		if sp.RemoteServers > 0 {
			v += 1.5
		}
		cells := make([]scenario.Summary, sp.Reps)
		for i := range cells {
			n := noise(sp, i) * 4 / float64(sp.Scales[0])
			cells[i] = scenario.Summary{ExecSeconds: 30,
				Failures: &scenario.FailureSummary{LostGroupSeconds: v + n, LostGlobalSeconds: v + n}}
		}
		return cells, nil
	}
}

func sq(x float64) float64 { return x * x }

// noise is a deterministic pseudo-random perturbation in [-1, 1), a pure
// function of the derived spec and rep.
func noise(sp *scenario.Spec, rep int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%g/%d/%d/%d", sp.Modes[0], sp.GroupMax, sp.Checkpoint.IntervalS, sp.RemoteServers, sp.Seed, rep)
	return float64(h.Sum64()%2048)/1024 - 1
}

// TestSearchFindsPlantedOptimum: the tuner must locate the surface's
// minimum and report it identically on repeated runs.
func TestSearchFindsPlantedOptimum(t *testing.T) {
	want := Candidate{Mode: "GP", GroupMax: 8, IntervalS: 4, Storage: Storage{}}
	var texts [][]byte
	for run := 0; run < 2; run++ {
		rep, err := Search(context.Background(), surfaceSpec(), Options{Run: surfaceRunner(t)})
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if rep.Winner != want {
			t.Fatalf("winner = %+v, want %+v\n%s", rep.Winner, want, rep.Text())
		}
		if rep.Baseline == nil || rep.Baseline.Won {
			t.Fatalf("baseline (GP g0 t2 local) should lose to the planted optimum: %+v", rep.Baseline)
		}
		if rep.Cells != rep.CellsComputed+rep.MemoHits {
			t.Errorf("budget split broken: %d != %d + %d", rep.Cells, rep.CellsComputed, rep.MemoHits)
		}
		if rep.MemoHits == 0 {
			t.Error("expected memo hits (winner's sensitivity points repeat final-rung evals)")
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		texts = append(texts, append([]byte(rep.Text()), j...))
	}
	if !bytes.Equal(texts[0], texts[1]) {
		t.Error("repeated searches of one spec rendered different reports")
	}
}

// TestSearchWorkerLadder: the report must be byte-identical at every
// eval-level worker count — scheduling must never leak into scores, order,
// or memo accounting.
func TestSearchWorkerLadder(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := Search(context.Background(), surfaceSpec(), Options{Run: surfaceRunner(t), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		b := append([]byte(rep.Text()), j...)
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Errorf("workers=%d: report differs from workers=1", workers)
		}
	}
}

// TestSearchSeedChangesNoise: a different tune seed perturbs the surface's
// noise (the runner hashes the derived spec seed), but the final rung still
// resolves the planted optimum.
func TestSearchSeedChangesNoise(t *testing.T) {
	for _, seed := range []int64{1, 7, 991} {
		ts := surfaceSpec()
		ts.Seed = seed
		rep, err := Search(context.Background(), ts, Options{Run: surfaceRunner(t)})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if rep.Winner.Mode != "GP" || rep.Winner.Storage.RemoteServers != 0 {
			t.Errorf("seed=%d: winner %+v left the optimum's basin", seed, rep.Winner)
		}
	}
}

// TestSearchInfeasibleCandidates: a horizon trip eliminates the candidate
// and shows as "horizon" in the sensitivity curve; it never aborts the
// search.
func TestSearchInfeasibleCandidates(t *testing.T) {
	base := surfaceRunner(t)
	run := func(ctx context.Context, ev Eval) ([]scenario.Summary, error) {
		if ev.Spec.RemoteServers > 0 {
			return nil, fmt.Errorf("fake: %w", harness.ErrHorizon)
		}
		return base(ctx, ev)
	}
	rep, err := Search(context.Background(), surfaceSpec(), Options{Run: run})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if rep.Winner.Storage.RemoteServers != 0 {
		t.Errorf("infeasible storage won: %+v", rep.Winner)
	}
	if !strings.Contains(rep.Text(), "horizon") {
		t.Error("sensitivity curve should mark the infeasible storage point as \"horizon\"")
	}
}

// TestSearchAllInfeasible: every candidate tripping the horizon is an
// ErrHorizon error, not a meaningless recommendation.
func TestSearchAllInfeasible(t *testing.T) {
	run := func(context.Context, Eval) ([]scenario.Summary, error) {
		return nil, fmt.Errorf("fake: %w", harness.ErrHorizon)
	}
	_, err := Search(context.Background(), surfaceSpec(), Options{Run: run})
	if !errors.Is(err, harness.ErrHorizon) {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
}

// TestSearchRunnerErrorAborts: a non-horizon runner error stops the search
// and surfaces verbatim.
func TestSearchRunnerErrorAborts(t *testing.T) {
	boom := errors.New("disk on fire")
	run := func(context.Context, Eval) ([]scenario.Summary, error) { return nil, boom }
	_, err := Search(context.Background(), surfaceSpec(), Options{Run: run})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped runner error", err)
	}
}

// TestSearchProgressAndMetrics: OnRung fires once per rung in order, and
// the budget counters land on the collector.
func TestSearchProgressAndMetrics(t *testing.T) {
	col := metrics.New()
	var mu sync.Mutex
	var rungs []int
	rep, err := Search(context.Background(), surfaceSpec(), Options{
		Run:     surfaceRunner(t),
		Metrics: col,
		OnRung: func(rr RungReport) {
			mu.Lock()
			rungs = append(rungs, rr.Rung)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if want := []int{0, 1, 2}; fmt.Sprint(rungs) != fmt.Sprint(want) {
		t.Errorf("OnRung order = %v, want %v", rungs, want)
	}
	snap := col.Snapshot()
	get := func(name string) int64 {
		for _, m := range snap.Counters {
			if m.Name == name {
				return m.Value
			}
		}
		t.Errorf("metric %s not registered", name)
		return -1
	}
	if v := get("tune_rungs_total"); v != 3 {
		t.Errorf("tune_rungs_total = %d, want 3", v)
	}
	if v := get("tune_cells_total"); v != int64(rep.CellsComputed) {
		t.Errorf("tune_cells_total = %d, want %d", v, rep.CellsComputed)
	}
	if v := get("tune_cache_hits_total"); v != int64(rep.MemoHits) {
		t.Errorf("tune_cache_hits_total = %d, want %d", v, rep.MemoHits)
	}
}

// TestSpecValidation: the loud-failure contract on tune-level fields.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad objective", func(ts *Spec) { ts.Objective = "latency" }, "unknown objective"},
		{"lost without failures", func(ts *Spec) { ts.Base.Failures = nil }, "needs a failure process"},
		{"no rungs", func(ts *Spec) { ts.Rungs = nil }, "rungs"},
		{"bad rung scale", func(ts *Spec) { ts.Rungs[0].Scale = 0 }, "scale"},
		{"negative horizon", func(ts *Spec) { ts.Rungs[0].HorizonS = -1 }, "horizonS"},
		{"eta 1", func(ts *Spec) { ts.Eta = 1 }, "eta"},
		{"dup interval", func(ts *Spec) { ts.IntervalsS = []float64{2, 2} }, "twice"},
		{"dup mode", func(ts *Spec) { ts.Modes = []string{"GP", "GP"} }, "twice"},
		{"negative interval", func(ts *Spec) { ts.IntervalsS = []float64{-1} }, "negative"},
		{"vcl with failures", func(ts *Spec) { ts.Modes = []string{"VCL"} }, "VCL"},
		{"bad scale for workload", func(ts *Spec) {
			ts.Base.Workload = scenario.WorkloadSpec{Kind: "cg"}
			ts.Rungs[0].Scale = 100 // not a power of two
		}, "power-of-two"},
	}
	for _, c := range cases {
		ts := surfaceSpec()
		c.mut(ts)
		_, err := Search(context.Background(), ts, Options{Run: surfaceRunner(t)})
		if err == nil {
			t.Errorf("%s: Search accepted the spec", c.name)
			continue
		}
		if !errors.Is(err, harness.ErrBadSpec) {
			t.Errorf("%s: err %v does not wrap ErrBadSpec", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSearchDoesNotMutateSpec: Search works on a deep copy.
func TestSearchDoesNotMutateSpec(t *testing.T) {
	ts := surfaceSpec()
	ts.Eta = 0 // must default on the copy, not in place
	if _, err := Search(context.Background(), ts, Options{Run: surfaceRunner(t)}); err != nil {
		t.Fatalf("Search: %v", err)
	}
	if ts.Eta != 0 || ts.Objective != "lost" && ts.Objective != "" {
		t.Errorf("Search mutated the caller's spec: %+v", ts)
	}
	if ts.Base.Reps != 0 {
		t.Errorf("Search normalized the caller's base spec in place (reps=%d)", ts.Base.Reps)
	}
}

// TestYoungSeededGrid: an omitted interval axis is seeded geometrically
// around Young's interval, ascending, with the base interval included.
func TestYoungSeededGrid(t *testing.T) {
	ts := surfaceSpec()
	ts.IntervalsS = nil
	ns, err := normalized(ts)
	if err != nil {
		t.Fatalf("normalized: %v", err)
	}
	if len(ns.IntervalsS) < 5 {
		t.Fatalf("seeded grid %v, want ≥ 5 points", ns.IntervalsS)
	}
	for i := 1; i < len(ns.IntervalsS); i++ {
		if ns.IntervalsS[i] <= ns.IntervalsS[i-1] {
			t.Fatalf("seeded grid not ascending: %v", ns.IntervalsS)
		}
	}
	found := false
	for _, v := range ns.IntervalsS {
		if v == ts.Base.Checkpoint.IntervalS {
			found = true
		}
	}
	if !found {
		t.Errorf("seeded grid %v misses the base interval %g", ns.IntervalsS, ts.Base.Checkpoint.IntervalS)
	}

	// No failure process and no explicit axis: nothing to seed from.
	ts2 := surfaceSpec()
	ts2.IntervalsS = nil
	ts2.Objective = "makespan"
	ts2.Base.Failures = nil
	if _, err := normalized(ts2); !errors.Is(err, harness.ErrBadSpec) {
		t.Errorf("seeding without failures: err = %v, want ErrBadSpec", err)
	}
}

// TestCandidateDedup: non-GP modes pin groupMax, so the grid never holds
// two candidates that run the same effective policy.
func TestCandidateDedup(t *testing.T) {
	ns, err := normalized(surfaceSpec())
	if err != nil {
		t.Fatal(err)
	}
	cands := ns.Candidates()
	want := (len(ns.GroupMax) + 1) * len(ns.IntervalsS) * len(ns.Storage) // GP×4 + NORM×1
	if len(cands) != want {
		t.Fatalf("grid size %d, want %d", len(cands), want)
	}
	seen := map[Candidate]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %+v", c)
		}
		seen[c] = true
	}
	if pc := ns.PlannedCells(); pc < len(cands) {
		t.Errorf("PlannedCells %d below first-rung size %d", pc, len(cands))
	}
}

// TestParseRejectsUnknownFields: the same typo contract every spec reader
// in the repo honors.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"scenario":{"workload":{"kind":"synthetic"}},"rugns":[{"scale":16}]}`))
	if !errors.Is(err, harness.ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec on unknown field", err)
	}
}

// TestCanonicalKeyStability: equivalent specs (defaults spelled out or
// omitted) share a key; a changed knob changes it.
func TestCanonicalKeyStability(t *testing.T) {
	a := surfaceSpec()
	b := surfaceSpec()
	b.Eta = 3
	b.Objective = "lost"
	ka, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Key(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("equivalent specs keyed differently")
	}
	c := surfaceSpec()
	c.Eta = 4
	kc, err := Key(c)
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Error("changing eta did not change the key")
	}
}
