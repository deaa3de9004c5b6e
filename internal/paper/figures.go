package paper

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The paper's HPL grouping uses G=P: the skeleton pins P=8 process rows.
const hplGroupMax = 8

func exec(p point) float64 { return p.ExecSeconds }

func epochs(p point) float64 { return float64(p.Epochs) }

// ---------------------------------------------------------------------------
// Figure 1 — checkpoint coordination time in HPL with LAM/MPI (NORM).

// Fig1 measures the summed time all processes spend coordinating one global
// checkpoint (excluding image writing) as the system scales. The paper's
// Figure 1 rises from near zero to hundreds of aggregate seconds with
// irregular spikes. The paper sweeps 12–68 processes; our HPL skeleton pins
// P=8, so the sweep runs over multiples of 8.
func Fig1(ctx context.Context, o Options) ([]*stats.Table, error) {
	problem, atS := o.hpl()
	s := o.spec("fig1", scenario.WorkloadSpec{Kind: "hpl", Problem: problem},
		o.scales([]int{16, 24, 32, 40, 48, 56, 64}, []int{16, 24}), string(harness.NORM))
	s.Checkpoint.AtS = atS
	pts, err := o.run(ctx, sweep{spec: s})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 1: aggregate coordination time of one global checkpoint (HPL, NORM)",
		Columns: []string{"procs", "coord_total_s", "min_s", "max_s"},
	}
	for i, n := range s.Scales {
		xs := scenario.Collect(scenario.Row(s, pts, i, 0), func(p point) float64 { return p.coord })
		min, max := stats.MinMax(xs)
		t.AddRow(n, stats.Summarize(xs), min, max)
	}
	t.AddNote("paper: grows with scale, with multi-second spikes at some scales")
	return []*stats.Table{t}, nil
}

// ---------------------------------------------------------------------------
// Figure 2 — CG under MPICH-VCL: blocking behaviour at scale.

// Fig2Result carries the gap analysis plus renderable timelines.
type Fig2Result struct {
	Table     *stats.Table
	Timelines map[int]string // procs → ASCII trace diagram (ranks P0–P3)
}

// fig2Point is one scale's measurement.
type fig2Point struct {
	epochs   int
	window   float64 // mean checkpoint window, seconds
	gap      float64
	share    float64
	timeline string
}

// Fig2 runs CG class C under VCL with periodic checkpoints and remote
// checkpoint servers, one traced cell per scale, then measures the fraction
// of each checkpoint window in which no application message was delivered
// ("gaps"). The paper's Figure 2 shows progress inside checkpoints at 32
// processes but gaps spanning nearly the whole checkpoint at 128.
func Fig2(ctx context.Context, o Options) (*Fig2Result, error) {
	// Fine message granularity for the trace diagram; batching two inner
	// iterations per superstep keeps the event count tractable at 128
	// ranks while staying far below the 1 s gap buckets.
	wl := scenario.WorkloadSpec{Kind: "cg", InnerBatch: 2}
	intervalS, bucket := 30.0, sim.Second
	if o.Quick {
		wl.NA, wl.NIter = 30000, 10
		intervalS, bucket = 5, 250*sim.Millisecond
	}
	s := o.spec("fig2", wl, o.scales([]int{32, 128}, []int{16, 64}), string(harness.VCL))
	s.Reps = 1
	// Six checkpoint windows are ample for the gap analysis; at 128 ranks
	// VCL epochs overrun the 30 s interval (the pathology the figure
	// demonstrates), so an uncapped schedule would checkpoint continuously
	// until the application ends.
	s.Checkpoint = scenario.CheckpointSpec{IntervalS: intervalS, MaxCount: 6}
	s.RemoteServers = 4
	points, err := scenario.Matrix(ctx, s, o.Workers, scenario.Instrument{TraceMaxScale: math.MaxInt},
		func(c scenario.Cell, res *harness.Result) (fig2Point, error) {
			var windows []trace.Window
			var winTotal sim.Time
			for _, sp := range res.Spans {
				windows = append(windows, trace.Window{From: sp.From, To: sp.To})
				winTotal += sp.To - sp.From
			}
			all := make([]int, c.Scale)
			for i := range all {
				all[i] = i
			}
			p := fig2Point{
				epochs: res.Epochs,
				window: winTotal.Seconds() / float64(max(res.Epochs, 1)),
				gap:    trace.GapFraction(res.Trace, all, windows, bucket),
				share:  float64(winTotal) / float64(res.ExecTime),
			}
			// Render ranks P0–P3 around the first checkpoint window, as in
			// the paper's trace diagrams.
			if len(windows) > 0 {
				w0 := windows[0]
				span := (w0.To - w0.From) * 2
				from := max(w0.From-span/4, 0)
				p.timeline = trace.Timeline(res.Trace, []int{0, 1, 2, 3},
					from, from+span, 100, windows)
			}
			return p, nil
		})
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{
		Table: &stats.Table{
			Title: fmt.Sprintf("Figure 2: CG under VCL, checkpoints every %gs — gap fraction of checkpoint windows",
				s.Checkpoint.IntervalS),
			Columns: []string{"procs", "ckpts", "ckpt_window_s", "gap_fraction", "ckpt_share_of_exec"},
		},
		Timelines: map[int]string{},
	}
	for i, n := range s.Scales {
		p := points[i]
		out.Table.AddRow(n, p.epochs, p.window, p.gap, p.share)
		if p.timeline != "" {
			out.Timelines[n] = p.timeline
		}
	}
	out.Table.AddNote("paper: small gaps at 32 procs; gaps span nearly the whole checkpoint at 128, >50%% of execution checkpointing")
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 1 — trace-derived group formation for HPL.

// Table1 runs HPL on 32 processes (8×4 grid) under GP, whose tracing pass
// feeds Algorithm 2 with G=P=8. The paper's Table 1 result: 4 groups whose
// ranks are congruent mod 4 ({0,4,…,28}, {1,5,…,29}, …).
func Table1(ctx context.Context, o Options) ([]*stats.Table, error) {
	problem, _ := o.hpl()
	s := o.spec("table1", scenario.WorkloadSpec{Kind: "hpl", Problem: problem}, []int{32}, string(harness.GP))
	s.Reps, s.GroupMax = 1, hplGroupMax
	fs, err := scenario.Matrix(ctx, s, 1, scenario.Instrument{},
		func(_ scenario.Cell, res *harness.Result) (group.Formation, error) { return res.Formation, nil })
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Table 1: group formation for HPL, 32 processes (PxQ=8x4)",
		Columns: []string{"group", "process_ranks"},
	}
	for i, g := range fs[0].Groups {
		t.AddRow(i+1, fmt.Sprint(g))
	}
	t.AddNote("paper: Q=4 groups of P=8 ranks in round-robin order")
	return []*stats.Table{t}, nil
}

// ---------------------------------------------------------------------------
// Figures 5–9: one HPL sweep projected five ways.

// hplFigure projects the HPL sweep behind Figures 5–9 — one checkpoint,
// modes GP/GP1/GP4/NORM over the scale sweep, each cell followed by a
// restart — onto one figure's tables. The figures share the memoized sweep.
func hplFigure(ctx context.Context, o Options, project func(*scenario.Spec, []point) []*stats.Table) ([]*stats.Table, error) {
	problem, atS := o.hpl()
	s := o.spec("fig5", scenario.WorkloadSpec{Kind: "hpl", Problem: problem},
		o.scales([]int{16, 32, 48, 64, 80, 96, 112, 128}, []int{16, 32}), "GP", "GP1", "GP4", "NORM")
	s.Checkpoint.AtS = atS
	s.GroupMax = hplGroupMax
	pts, err := o.run(ctx, sweep{spec: s, restart: true})
	if err != nil {
		return nil, err
	}
	return project(s, pts), nil
}

// Fig5 reports HPL execution time with one checkpoint (Figure 5a) and the
// per-mode difference from NORM (Figure 5b).
func Fig5(ctx context.Context, o Options) ([]*stats.Table, error) {
	return hplFigure(ctx, o, func(s *scenario.Spec, pts []point) []*stats.Table {
		a := modeTable(fmt.Sprintf("Figure 5a: HPL execution time with one checkpoint at t=%gs", s.Checkpoint.AtS),
			"exec_s", "all modes within a few seconds; GP's edge over NORM grows with scale", s, pts, s.Modes, exec)
		b := &stats.Table{
			Title:   "Figure 5b: execution-time difference from NORM (negative = faster than NORM)",
			Columns: append([]string{"procs"}, modeCols(s.Modes, "diff_s")...),
		}
		for i, n := range s.Scales {
			norm := stats.Mean(scenario.Collect(at(s, pts, i, "NORM"), exec))
			row := []any{n}
			for _, m := range s.Modes {
				row = append(row, stats.Mean(scenario.Collect(at(s, pts, i, m), exec))-norm)
			}
			b.AddRow(row...)
		}
		return []*stats.Table{a, b}
	})
}

// Fig6 reports the summed per-process checkpoint time (6a) and restart time
// (6b) for the HPL sweep.
func Fig6(ctx context.Context, o Options) ([]*stats.Table, error) {
	return hplFigure(ctx, o, func(s *scenario.Spec, pts []point) []*stats.Table {
		return []*stats.Table{
			modeTable("Figure 6a: summed checkpoint time (HPL)", "ckpt_s",
				"GP≈GP1 flat and lowest; GP4 between; NORM grows with scale and spikes",
				s, pts, s.Modes, func(p point) float64 { return p.ckpt }),
			modeTable("Figure 6b: summed restart time (HPL)", "restart_s",
				"NORM lowest (no replay); GP slightly above; GP1 highest and most variable",
				s, pts, s.Modes, func(p point) float64 { return p.restart }),
		}
	})
}

// Fig7 reports the total data resent to complete a restart.
func Fig7(ctx context.Context, o Options) ([]*stats.Table, error) {
	return hplFigure(ctx, o, func(s *scenario.Spec, pts []point) []*stats.Table {
		return []*stats.Table{modeTable("Figure 7: amount of data to resend during restart (KB)", "resend_KB",
			"GP1 largest and most variable; GP and GP4 lower and steady (NORM is zero by construction)",
			s, pts, []string{"GP", "GP1", "GP4"}, func(p point) float64 { return p.resendKB })}
	})
}

// Fig8 reports the number of resend operations to complete a restart.
func Fig8(ctx context.Context, o Options) ([]*stats.Table, error) {
	return hplFigure(ctx, o, func(s *scenario.Spec, pts []point) []*stats.Table {
		return []*stats.Table{modeTable("Figure 8: number of resend operations during restart", "ops",
			"GP1 up to ~60 and varying; GP/GP4 lower and steady",
			s, pts, []string{"GP", "GP1", "GP4"}, func(p point) float64 { return p.resendOps })}
	})
}

// Fig9 reports the mean per-process checkpoint stage breakdown at the
// smallest and largest scale in the sweep.
func Fig9(ctx context.Context, o Options) ([]*stats.Table, error) {
	return hplFigure(ctx, o, func(s *scenario.Spec, pts []point) []*stats.Table {
		t := &stats.Table{
			Title:   "Figure 9: checkpoint time breakdown (mean per process, seconds)",
			Columns: []string{"procs", "mode", "lock_mpi", "coordination", "checkpoint", "finalize"},
		}
		for _, i := range []int{0, len(s.Scales) - 1} {
			for _, m := range s.Modes {
				var sum ckpt.Breakdown
				var cnt int
				for _, p := range at(s, pts, i, m) {
					sum = sum.Add(p.stages)
					cnt += p.records
				}
				mean := sum.Scale(max(cnt, 1))
				t.AddRow(s.Scales[i], m,
					mean[ckpt.StageLock].Seconds(), mean[ckpt.StageCoord].Seconds(),
					mean[ckpt.StageWrite].Seconds(), mean[ckpt.StageFinalize].Seconds())
			}
		}
		t.AddNote("paper: Checkpoint stage shrinks with scale (smaller per-rank data); NORM's Coordination explodes at 128 and dominates; GP keeps it minimal")
		return []*stats.Table{t}
	})
}

// ---------------------------------------------------------------------------
// Figure 10 — periodic checkpoints on HPL N=56000, 128 processes.

// Fig10 sweeps the checkpoint interval (0 = no checkpoints) for GP vs NORM —
// one sweep per interval — and reports execution time and completed
// checkpoint count.
func Fig10(ctx context.Context, o Options) ([]*stats.Table, error) {
	problem, n := 56000, 128
	intervals := []float64{0, 60, 120, 180, 300}
	if o.Quick {
		problem, n = 5760, 16
		intervals = []float64{0, 5, 10}
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Figure 10: effect of periodic checkpoints (HPL N=%d, %d procs)", problem, n),
		Columns: []string{"interval_s", "GP_exec_s", "GP_ckpts", "NORM_exec_s", "NORM_ckpts"},
	}
	for _, iv := range intervals {
		s := o.spec("fig10", scenario.WorkloadSpec{Kind: "hpl", Problem: problem}, []int{n}, "GP", "NORM")
		s.Checkpoint.IntervalS = iv
		s.GroupMax = hplGroupMax
		pts, err := o.run(ctx, sweep{spec: s})
		if err != nil {
			return nil, err
		}
		row := []any{iv}
		for j := range s.Modes {
			rs := scenario.Row(s, pts, 0, j)
			row = append(row, stats.Summarize(scenario.Collect(rs, exec)), stats.Mean(scenario.Collect(rs, epochs)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: with no checkpoints GP is slightly slower (logging); GP catches NORM at 4 checkpoints (180s interval) and wins at 60/120s")
	return []*stats.Table{t}, nil
}

// ---------------------------------------------------------------------------
// Figures 11 and 12 — NPB CG and SP summed checkpoint/restart times.

// npbTables runs an NPB sweep with one checkpoint, each cell followed by a
// restart, and reports the summed checkpoint and restart times under the
// paper's observation for each.
func npbTables(ctx context.Context, o Options, title string, s *scenario.Spec, ckptNote, restartNote string) ([]*stats.Table, error) {
	_, s.Checkpoint.AtS = o.hpl()
	pts, err := o.run(ctx, sweep{spec: s, restart: true})
	if err != nil {
		return nil, err
	}
	return []*stats.Table{
		modeTable(title+": summed checkpoint time", "ckpt_s", ckptNote, s, pts, s.Modes,
			func(p point) float64 { return p.ckpt }),
		modeTable(title+": summed restart time", "restart_s", restartNote, s, pts, s.Modes,
			func(p point) float64 { return p.restart }),
	}, nil
}

// Fig11 is the CG class C checkpoint/restart sweep (paper Figure 11).
func Fig11(ctx context.Context, o Options) ([]*stats.Table, error) {
	wl := scenario.WorkloadSpec{Kind: "cg"}
	if o.Quick {
		wl.NA, wl.NIter = 30000, 20
	}
	s := o.spec("fig11", wl, o.scales([]int{16, 32, 64, 128}, []int{16, 32}), "GP", "GP1", "GP4", "NORM")
	return npbTables(ctx, o, "Figure 11 (CG class C)", s,
		"GP much better than NORM, comparable to GP1", "GP as efficient as NORM, less varying than GP1")
}

// Fig12 is the SP class C checkpoint/restart sweep (paper Figure 12; GP4 is
// omitted as in the paper — it does not fit SP's square process counts).
func Fig12(ctx context.Context, o Options) ([]*stats.Table, error) {
	wl := scenario.WorkloadSpec{Kind: "sp"}
	if o.Quick {
		wl.Problem, wl.NIter = 64, 60
	}
	s := o.spec("fig12", wl, o.scales([]int{64, 81, 100, 121}, []int{16, 25}), "GP", "GP1", "NORM")
	return npbTables(ctx, o, "Figure 12 (SP class C)", s,
		"checkpoint time GP ≪ NORM, comparable to GP1", "restart GP ≈ NORM, less varying than GP1")
}

// ---------------------------------------------------------------------------
// Figures 13 and 14 — remote checkpoint storage, GP vs MPICH-VCL.

// remoteFigure projects the sweep behind Figures 13–14 onto one figure's
// table: CG class C with images on 4 remote checkpoint servers, VCL
// checkpointing periodically, and each cell's matched GP run taking the
// same number of checkpoints (the paper's fairness rule). The figures
// share the memoized sweep.
func remoteFigure(ctx context.Context, o Options, t *stats.Table, row func(n int, vcl, gp []point) []any) ([]*stats.Table, error) {
	wl := scenario.WorkloadSpec{Kind: "cg"}
	intervalS := 120.0
	if o.Quick {
		// Long enough that quick-sized VCL epochs do not overrun.
		wl.NA, wl.NIter, intervalS = 30000, 30, 25
	}
	s := o.spec("fig13", wl, o.scales([]int{16, 32, 64, 128}, []int{16, 32}), string(harness.VCL))
	s.Checkpoint.IntervalS = intervalS
	s.RemoteServers = 4
	pts, err := o.run(ctx, sweep{spec: s, matchGP: true})
	if err != nil {
		return nil, err
	}
	for i, n := range s.Scales {
		vcl := scenario.Row(s, pts, i, 0)
		gp := make([]point, len(vcl))
		for r, p := range vcl {
			gp[r] = *p.gp
		}
		t.AddRow(row(n, vcl, gp)...)
	}
	return []*stats.Table{t}, nil
}

// Fig13 reports execution time and checkpoint counts for GP vs VCL with
// remote checkpoint storage.
func Fig13(ctx context.Context, o Options) ([]*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 13: effect of scale with remote checkpoint storage (CG class C)",
		Columns: []string{"procs", "GP_exec_s", "GP_ckpts", "VCL_exec_s", "VCL_ckpts"},
	}
	t.AddNote("paper: GP shows a clear edge over VCL as the system scales up")
	return remoteFigure(ctx, o, t, func(n int, vcl, gp []point) []any {
		return []any{n, stats.Summarize(scenario.Collect(gp, exec)), stats.Mean(scenario.Collect(gp, epochs)),
			stats.Summarize(scenario.Collect(vcl, exec)), stats.Mean(scenario.Collect(vcl, epochs))}
	})
}

// Fig14 reports the average time per checkpoint for GP vs VCL.
func Fig14(ctx context.Context, o Options) ([]*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 14: average time per checkpoint (CG class C, remote storage)",
		Columns: []string{"procs", "GP_s", "VCL_s"},
	}
	t.AddNote("paper: GP stays low and flat; VCL climbs steeply with scale")
	perCkpt := func(p point) float64 { return p.perCkpt }
	return remoteFigure(ctx, o, t, func(n int, vcl, gp []point) []any {
		return []any{n, stats.Summarize(scenario.Collect(gp, perCkpt)), stats.Summarize(scenario.Collect(vcl, perCkpt))}
	})
}
