// Package paper reproduces the paper's evaluation — Figures 1–14 and Table
// 1 — as scenario sweeps. Each figure is a scenario.Spec on the paper's
// testbed run through scenario.Matrix, the engine every sweep uses, plus a
// projection from its cells to the rows the paper reports. Per-cell stages
// (a restart, Figures 13–14's matched GP run) are seeded with the cell's
// own seed, and a memo keyed by the spec lets figures projected from one
// sweep — Figures 5–9, Figures 13–14 — share it.
package paper

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options scales the experiments. The zero value gives the paper-faithful
// configuration; Quick shrinks problem sizes and repetition counts so the
// whole suite runs in seconds (used by tests and the default benchmarks).
type Options struct {
	Reps   int  // repetitions per point (default 5, the paper's count)
	Quick  bool // reduced problem sizes / scales
	Scales []int

	// Workers bounds how many simulation runs execute concurrently
	// (0 = GOMAXPROCS, 1 = serial). Every run is seeded from its cell, so
	// the worker count never changes any result: parallel and serial
	// execution produce byte-identical tables.
	Workers int
}

func (o Options) reps() int {
	if o.Reps > 0 {
		return o.Reps
	}
	if o.Quick {
		return 2
	}
	return 5
}

func (o Options) scales(full, quick []int) []int {
	if len(o.Scales) > 0 {
		return o.Scales
	}
	if o.Quick {
		return quick
	}
	return full
}

// hpl returns the HPL problem size and single-checkpoint time. The paper
// uses N=20000 with a checkpoint at t=60 s; the NPB figures share the
// checkpoint time.
func (o Options) hpl() (n int, ckptAtS float64) {
	if o.Quick {
		return 5760, 4
	}
	return 20000, 60
}

// spec builds one figure's sweep on the paper's testbed (the default
// gideon cluster and seed): the workload at the scales under the modes,
// with o's repetitions.
func (o Options) spec(name string, wl scenario.WorkloadSpec, scales []int, modes ...string) *scenario.Spec {
	s := &scenario.Spec{Name: name, Workload: wl, Scales: scales, Modes: modes, Reps: o.reps()}
	s.Normalize()
	return s
}

// point is one figure cell's measurements: the shared cell summary plus
// the figure metrics its records and stages yield.
type point struct {
	scenario.Summary
	coord   float64        // summed coordination time, excluding image writes (Fig. 1)
	ckpt    float64        // summed checkpoint time (Figs. 6a, 11–12)
	perCkpt float64        // mean time per rank per checkpoint (Fig. 14)
	stages  ckpt.Breakdown // summed per-record stage times (Fig. 9)
	records int

	// The restart stage (Figs. 6b–8, 11–12).
	restart   float64 // summed restart time
	resendKB  float64
	resendOps float64

	// gp is the GP run matched to this VCL cell's checkpoint count
	// (Figs. 13–14).
	gp *point
}

func measure(c scenario.Cell, res *harness.Result) point {
	p := point{
		Summary: scenario.Summarize(c, res),
		coord:   harness.AggregateCoordination(res.Records).Seconds(),
		ckpt:    ckpt.AggregateCheckpointTime(res.Records).Seconds(),
		perCkpt: harness.MeanCheckpointTime(res.Records).Seconds(),
		records: len(res.Records),
	}
	for _, r := range res.Records {
		p.stages = p.stages.Add(r.Stages)
	}
	return p
}

// sweep is one figure's scenario plus the stages that follow each cell.
type sweep struct {
	spec *scenario.Spec
	// restart restarts every cell from its latest checkpoint.
	restart bool
	// matchGP follows every VCL cell with a GP run at its checkpoint count.
	matchGP bool
}

// memo holds finished sweeps by spec key and stages.
var memo runner.Memo[[]point]

// run measures every cell of the sweep, or returns the memoized points of
// an identical one, in matrix order.
func (o Options) run(ctx context.Context, sw sweep) ([]point, error) {
	key, err := scenario.Key(sw.spec)
	if err != nil {
		return nil, err
	}
	key = fmt.Sprintf("%s restart=%v matchGP=%v", key, sw.restart, sw.matchGP)
	pts, err := memo.Get(key, func() ([]point, error) {
		return scenario.Matrix(ctx, sw.spec, o.Workers, scenario.Instrument{},
			func(c scenario.Cell, res *harness.Result) (point, error) { return sw.stages(ctx, c, res) })
	})
	if errors.Is(err, harness.ErrCanceled) {
		// A canceled build must not poison the cache for later callers.
		memo.Forget(key)
	}
	return pts, err
}

func (sw sweep) stages(ctx context.Context, c scenario.Cell, res *harness.Result) (point, error) {
	p := measure(c, res)
	if sw.restart {
		rst, err := harness.Restart(res, c.Seed)
		if err != nil {
			return point{}, err
		}
		p.restart = rst.AggregateRestartTime().Seconds()
		p.resendKB = float64(rst.ResendBytes) / 1024
		p.resendOps = float64(rst.ResendOps)
	}
	if sw.matchGP {
		gp, err := sw.matchedGP(ctx, c, res)
		if err != nil {
			return point{}, err
		}
		p.gp = &gp
	}
	return p, nil
}

// matchedGP runs GP on a VCL cell's workload and seed, forced to VCL's
// checkpoint count at an interval of VCL's execution time ÷ (count+1) —
// the paper's fairness rule. GP usually runs faster: when it finishes
// before its last checkpoint, it reruns once with the count spaced over its
// own execution time. The paper's GP/LAM path reaches the servers through
// async-mounted NFS (write-behind), where VCL streams synchronously to its
// checkpoint servers.
func (sw sweep) matchedGP(ctx context.Context, c scenario.Cell, vcl *harness.Result) (point, error) {
	count := vcl.Epochs
	s := sw.spec.Clone()
	s.Modes, s.RemoteAsync = []string{string(harness.GP)}, true
	gc := scenario.Cell{Scale: c.Scale, Mode: string(harness.GP), Rep: c.Rep, Seed: c.Seed}
	run := func(exec sim.Time) (*harness.Result, error) {
		s.Checkpoint = scenario.CheckpointSpec{IntervalS: sw.spec.Checkpoint.IntervalS, MaxCount: count}
		if count > 0 {
			s.Checkpoint.IntervalS = (exec / sim.Time(count+1)).Seconds()
		}
		return s.RunCell(ctx, gc, scenario.Instrument{})
	}
	res, err := run(vcl.ExecTime)
	if err == nil && res.Epochs < count {
		res, err = run(res.ExecTime)
	}
	if err != nil {
		return point{}, err
	}
	return measure(gc, res), nil
}

// at returns the repetitions at the i-th scale under mode m.
func at(s *scenario.Spec, pts []point, i int, m string) []point {
	return scenario.Row(s, pts, i, slices.Index(s.Modes, m))
}

// modeTable renders one row per scale and one column per mode — f over the
// row's repetitions, as mean±σ — under the paper's observation.
func modeTable(title, unit, paper string, s *scenario.Spec, pts []point, modes []string, f func(point) float64) *stats.Table {
	t := &stats.Table{Title: title, Columns: append([]string{"procs"}, modeCols(modes, unit)...)}
	for i, n := range s.Scales {
		row := []any{n}
		for _, m := range modes {
			row = append(row, stats.Summarize(scenario.Collect(at(s, pts, i, m), f)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: %s", paper)
	return t
}

func modeCols(modes []string, unit string) []string {
	var out []string
	for _, m := range modes {
		out = append(out, fmt.Sprintf("%s_%s", m, unit))
	}
	return out
}
