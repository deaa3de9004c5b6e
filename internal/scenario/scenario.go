package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Instrument selects per-cell introspection for RunObserved. The zero value
// adds nothing to the plain Run path.
type Instrument struct {
	// Inspect attaches an InspectObserver to every cell (message
	// statistics, pair flows, queue depths, cut records).
	Inspect bool
	// Comm attaches the streaming CommMatrix tracer to every cell.
	Comm bool
	// TraceMaxScale attaches the full record tracer to every cell whose
	// rank count is at or below it (0 = never). The gate is per cell, not
	// per sweep: a mixed-scale spec still traces its small cells. Memory
	// scales with message count — keep the bound modest.
	TraceMaxScale int
	// HorizonS caps each cell's virtual time in seconds (0 = unlimited):
	// a cell that has not finished by then fails instead of simulating
	// forever (the oracle's liveness backstop).
	HorizonS float64
	// Metrics attaches a fresh MetricsObserver to every cell, so each
	// Result carries a per-cell online-metrics snapshot.
	Metrics bool
	// RunWorkers bounds how many kernel partitions execute concurrently
	// inside each cell (0 or 1 = serial). Cell output is byte-identical
	// at every setting; it composes with sweep-level cell concurrency.
	RunWorkers int
	// PartitionMinRanks overrides the world size at which a cell's kernel
	// is partitioned (0 = harness.DefaultPartitionMinRanks; negative =
	// never). Unlike RunWorkers it affects the simulated interleaving —
	// it exists for the determinism oracle and partition-path tests, which
	// force partitioning onto small worlds.
	PartitionMinRanks int
}

// Cell identifies one run of the sweep: the matrix key (scale, mode, rep)
// in row-major order. Seed is the cell's run seed, derived from its
// position in the flattened matrix so no two cells can collide whatever the
// Scales/Modes/Reps shape.
type Cell struct {
	Scale int
	Mode  string
	Rep   int
	Seed  int64
}

// Cells returns the sweep's flattened run matrix — Scales × Modes × Reps in
// row-major order, each cell carrying its derived seed. The slice is the
// unit of streaming: gb.Sweep fans Cells across workers with RunCell and
// yields them as they finish. It holds CellCount cells, so check that first
// for an untrusted spec.
func (s *Spec) Cells() []Cell {
	base := s.Seed * 1_000_003
	cells := make([]Cell, 0, s.CellCount())
	for _, n := range s.Scales {
		for _, m := range s.Modes {
			for rep := 0; rep < s.Reps; rep++ {
				cells = append(cells, Cell{Scale: n, Mode: m, Rep: rep,
					Seed: base + int64(len(cells))})
			}
		}
	}
	return cells
}

// CellCount returns the size of the sweep's matrix, Scales × Modes × Reps,
// without building it: the product saturates at math.MaxInt instead of
// overflowing, so a bound check on it is safe for any spec.
func (s *Spec) CellCount() int {
	n := 1
	for _, f := range []int{len(s.Scales), len(s.Modes), max(s.Reps, 0)} {
		if f != 0 && n > math.MaxInt/f {
			return math.MaxInt
		}
		n *= f
	}
	return n
}

// observers builds the per-cell observer stack an Instrument selects. A
// fresh stack per cell: observers are stateful, single-run objects.
func (ins Instrument) observers(scale int) []harness.Observer {
	var obs []harness.Observer
	if scale <= ins.TraceMaxScale {
		obs = append(obs, harness.NewTraceObserver())
	}
	if ins.Comm {
		obs = append(obs, harness.NewCommObserver())
	}
	if ins.Inspect {
		obs = append(obs, harness.NewInspectObserver())
	}
	if ins.Metrics {
		obs = append(obs, harness.NewMetricsObserver())
	}
	return obs
}

// RunCell executes one cell of the sweep under the given instrumentation.
// Every cell is an independent simulation fully determined by the spec and
// the cell's seed, so cells may run concurrently in any order.
func (s *Spec) RunCell(ctx context.Context, c Cell, ins Instrument) (*harness.Result, error) {
	if s.Jobs != nil {
		return s.runJobsCell(ctx, c, ins)
	}
	clusterCfg, err := s.Cluster.Config()
	if err != nil {
		return nil, err
	}
	spec := harness.Spec{
		WL:                s.Workload.Build(c.Scale),
		Mode:              harness.Mode(c.Mode),
		Seed:              c.Seed,
		Cluster:           clusterCfg,
		Sched:             s.Checkpoint.schedule(),
		GroupMax:          s.GroupMax,
		RemoteServers:     s.RemoteServers,
		RemoteAsync:       s.RemoteAsync,
		Observers:         ins.observers(c.Scale),
		Horizon:           sim.Seconds(ins.HorizonS),
		RunWorkers:        ins.RunWorkers,
		PartitionMinRanks: ins.PartitionMinRanks,
	}
	if s.Failures != nil {
		proc, err := s.Failures.process()
		if err != nil {
			return nil, fmt.Errorf("scenario %q: failures: %w", s.Name, err)
		}
		spec.FailureProc = proc
		spec.MaxFailures = s.Failures.Max
	}
	return harness.Run(ctx, spec)
}

// RunObserved executes the sweep — Scales × Modes × Reps independent
// simulations fanned across workers (≤ 0 = all cores) through Matrix — and
// renders one table row per (scale, mode). Every cell is seeded from the
// spec seed and its matrix coordinates, so the table is byte-identical at
// any worker count and across runs: a scenario file plus a seed IS the
// experiment. Each completed cell's full harness.Result is handed to obs
// (nil = none) before being folded into the table; obs is called
// concurrently from worker goroutines and must be safe for concurrent use,
// and an error from obs fails the sweep. Observation never perturbs the
// simulation. Canceling ctx stops the sweep with an error wrapping
// harness.ErrCanceled.
func (s *Spec) RunObserved(ctx context.Context, workers int, ins Instrument, obs func(Cell, *harness.Result) error) (*stats.Table, error) {
	sums, err := Matrix(ctx, s, workers, ins, func(c Cell, res *harness.Result) (Summary, error) {
		if obs != nil {
			if err := obs(c, res); err != nil {
				return Summary{}, err
			}
		}
		return Summarize(c, res), nil
	})
	if err != nil {
		return nil, err
	}

	t := &stats.Table{Title: s.title()}
	if s.Jobs != nil {
		t.Columns = []string{"nodes", "mode", "jobs", "makespan_s", "util_pct", "wait_s", "max_wait_s"}
	} else {
		t.Columns = []string{"procs", "mode", "exec_s", "ckpts"}
	}
	if s.Failures != nil {
		t.Columns = append(t.Columns, "fails", "lost_group_s", "lost_global_s", "saved_s", "replay_KB")
	}
	for i, n := range s.Scales {
		for j, mode := range s.Modes {
			rs := Row(s, sums, i, j)
			col := func(f func(Summary) float64) []float64 { return Collect(rs, f) }
			var row []any
			if s.Jobs != nil {
				row = []any{n, mode,
					stats.Mean(col(func(r Summary) float64 { return float64(r.Jobs.Count) })),
					stats.Summarize(col(func(r Summary) float64 { return r.ExecSeconds })),
					stats.Summarize(col(func(r Summary) float64 { return 100 * r.Jobs.Utilization })),
					stats.Summarize(col(func(r Summary) float64 { return r.Jobs.MeanWaitSeconds })),
					stats.Summarize(col(func(r Summary) float64 { return r.Jobs.MaxWaitSeconds })),
				}
			} else {
				row = []any{n, mode,
					stats.Summarize(col(func(r Summary) float64 { return r.ExecSeconds })),
					stats.Mean(col(func(r Summary) float64 { return float64(r.Epochs) })),
				}
			}
			if s.Failures != nil {
				row = append(row,
					stats.Mean(col(func(r Summary) float64 { return float64(r.Fails().Count) })),
					stats.Summarize(col(func(r Summary) float64 { return r.Fails().LostGroupSeconds })),
					stats.Summarize(col(func(r Summary) float64 { return r.Fails().LostGlobalSeconds })),
					stats.Summarize(col(func(r Summary) float64 { return r.Fails().SavedSeconds })),
					stats.Summarize(col(func(r Summary) float64 { return float64(r.Fails().ReplayBytes) / 1024 })),
				)
			}
			t.AddRow(row...)
		}
	}
	if s.Jobs != nil {
		t.AddNote("cluster=%s jobs=%d placement=%s reps=%d seed=%d",
			s.Cluster.Profile, s.Jobs.Count, s.Jobs.Placement, s.Reps, s.Seed)
	} else {
		t.AddNote("cluster=%s workload=%s reps=%d seed=%d", s.Cluster.Profile, s.Workload.Kind, s.Reps, s.Seed)
	}
	if s.Failures != nil {
		if p, err := s.Failures.process(); err == nil {
			t.AddNote("failure process: %s; each failure evaluated at its instant under group vs. global restart", p.Name())
		}
	}
	if s.Notes != "" {
		t.AddNote("%s", s.Notes)
	}
	return t, nil
}

// Matrix is the one run-matrix engine: it runs every cell of the spec under
// ins, fanned across workers (≤ 0 = all cores), and returns stage's value
// for each cell in matrix order. stage runs on the cell's worker right after
// the cell, with its full Result; it may run further simulations seeded
// from the cell (a restart, a dependent run). Every value is determined by
// the spec and the cell, so the slice is identical at any worker count.
// Canceling ctx stops the sweep with an error wrapping harness.ErrCanceled.
func Matrix[T any](ctx context.Context, s *Spec, workers int, ins Instrument, stage func(Cell, *harness.Result) (T, error)) ([]T, error) {
	if _, err := s.Cluster.Config(); err != nil {
		return nil, err
	}
	vals, err := runner.MapCtx(ctx, workers, s.Cells(), func(c Cell) (T, error) {
		res, err := s.RunCell(ctx, c, ins)
		if err != nil {
			var zero T
			return zero, err
		}
		return stage(c, res)
	})
	// A cancel observed by the pool between cells must carry the same
	// sentinel as one landing inside a cell.
	if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) &&
		!errors.Is(err, harness.ErrCanceled) {
		err = fmt.Errorf("harness: %w: %v", harness.ErrCanceled, err)
	}
	return vals, err
}

// Row returns the repetitions of one table row — the i-th scale and j-th
// mode — from a slice in the spec's matrix order, such as Matrix returns.
func Row[T any](s *Spec, vals []T, i, j int) []T {
	k := (i*len(s.Modes) + j) * s.Reps
	return vals[k : k+s.Reps]
}

// Collect applies f to every value, for folding a row into one column.
func Collect[T any](vals []T, f func(T) float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = f(v)
	}
	return out
}

func (s *Spec) title() string {
	if s.Jobs != nil {
		return fmt.Sprintf("Scenario %s: %d-job stream on %s, modes %s",
			s.Name, s.Jobs.Count, s.Cluster.Profile, strings.Join(s.Modes, "/"))
	}
	return fmt.Sprintf("Scenario %s: %s on %s, modes %s",
		s.Name, s.Workload.Kind, s.Cluster.Profile, strings.Join(s.Modes, "/"))
}

// ---------------------------------------------------------------------------
// Built-in profiles.

// builtins maps profile names to their spec source. They go through Parse
// like any user file, so they are guaranteed to stay valid as the schema
// evolves (TestBuiltInsParse).
var builtins = map[string]string{
	// gideon: the paper's testbed under a multi-failure lifetime — the
	// motivating scenario Section 1 argues from, which no figure runs.
	"gideon": `{
		"name": "gideon",
		"notes": "paper-era testbed; Poisson failures once per ~10s of a ~45s run",
		"cluster": {"profile": "gideon"},
		"workload": {"kind": "synthetic", "iters": 300, "mflopsPerIter": 150},
		"scales": [32, 64],
		"modes": ["GP", "GP1", "NORM"],
		"checkpoint": {"intervalS": 10},
		"failures": {"process": "poisson", "mtbfS": 10},
		"reps": 2,
		"seed": 42
	}`,
	// modern: present-day hardware at 4× the paper's peak scale, with the
	// infant-mortality (Weibull shape < 1) lifetimes HPC failure studies
	// report. Modes are group-based: at these scales a NORM run
	// checkpoints continuously (each global coordination outlasts the
	// 10 s interval — the paper's pathology, literally) and takes minutes
	// of wall clock per cell; the group-vs-global verdict comes from the
	// injector's lost_group_s / lost_global_s columns instead.
	"modern": `{
		"name": "modern",
		"notes": "10GbE/NVMe calibration; Weibull(0.7) failures on a ~50s run",
		"cluster": {"profile": "modern"},
		"workload": {"kind": "synthetic", "iters": 300, "mflopsPerIter": 3000},
		"scales": [256, 512],
		"modes": ["GP", "GP1"],
		"checkpoint": {"intervalS": 10},
		"failures": {"process": "weibull", "shape": 0.7, "mtbfS": 15},
		"reps": 2,
		"seed": 42
	}`,
	// cluster-burst: the multi-job cluster under a failure storm. A stream
	// of jobs arrives in bursts on a 4096-node cluster while the failure
	// process burst-modulates too; grouped placement keeps checkpoint
	// groups co-located. Mode is group-based for the same reason as the
	// modern builtin (a NORM inner run at these scales checkpoints
	// continuously and never converges); the group-vs-global verdict comes
	// from the injector's lost_group_s / lost_global_s columns, which show
	// group restart's advantage compounding across the job stream when
	// failures cluster in time.
	"cluster-burst": `{
		"name": "cluster-burst",
		"notes": "bursty job arrivals x bursty failures on a 4096-node cluster; grouped placement keeps checkpoint groups co-located, and lost_group_s vs lost_global_s carries the paper's verdict into the cluster regime",
		"cluster": {"profile": "modern"},
		"scales": [4096],
		"modes": ["GP1"],
		"checkpoint": {"intervalS": 2},
		"failures": {"process": "poisson", "mtbfS": 4, "pattern": {"preset": "burst-storm"}},
		"jobs": {
			"count": 6,
			"meanInterarrivalS": 10,
			"arrivals": {"preset": "burst-storm"},
			"placement": "grouped",
			"templates": [
				{"kind": "synthetic", "iters": 12, "mflopsPerIter": 3000, "ranks": 2048, "weight": 1},
				{"kind": "synthetic", "iters": 8, "mflopsPerIter": 3000, "ranks": 1024, "weight": 2}
			]
		},
		"reps": 1,
		"seed": 7
	}`,
	// scale16k: 128× the paper's peak scale on modern hardware — the
	// regime the coroutine scheduler, pooled message path, and sparse
	// per-peer transport state exist for. One cell is a 16384-rank
	// lifetime with Poisson failures under uncoordinated (GP1)
	// checkpointing; BenchmarkScenario16384 runs exactly this profile.
	"scale16k": `{
		"name": "scale16k",
		"notes": "16384 ranks; memory stays bounded (sparse channels, streaming aggregation)",
		"cluster": {"profile": "modern"},
		"workload": {"kind": "synthetic", "iters": 30, "mflopsPerIter": 3000},
		"scales": [16384],
		"modes": ["GP1"],
		"checkpoint": {"intervalS": 2},
		"failures": {"process": "poisson", "mtbfS": 2},
		"reps": 1,
		"seed": 1
	}`,
	// scale64k: 512× the paper's peak scale — the regime the partitioned
	// kernel exists for. A 65536-rank world splits into 64 group-partitioned
	// sub-kernels; run it with Instrument.RunWorkers (or gbexp/gbd
	// runWorkers) to spread one cell across cores, byte-identically.
	"scale64k": `{
		"name": "scale64k",
		"notes": "65536 ranks; one run spread across cores by the group-partitioned kernel",
		"cluster": {"profile": "modern"},
		"workload": {"kind": "synthetic", "iters": 10, "mflopsPerIter": 3000},
		"scales": [65536],
		"modes": ["GP1"],
		"checkpoint": {"intervalS": 2},
		"failures": {"process": "poisson", "mtbfS": 2},
		"reps": 1,
		"seed": 1
	}`,
}

// BuiltIn returns the named built-in scenario profile.
func BuiltIn(name string) (*Spec, bool) {
	src, ok := builtins[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		panic("scenario: built-in profile " + name + " invalid: " + err.Error())
	}
	return s, true
}

// BuiltInNames lists the built-in profiles in stable order.
func BuiltInNames() []string {
	var names []string
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
