package repro

// Benchmarks that regenerate every table and figure of the paper's
// evaluation section, plus ablations over the design parameters DESIGN.md
// calls out. Each benchmark runs the experiment end to end (workload,
// protocol, checkpoints, restarts) and reports the figure's headline
// quantity as a custom metric.
//
// The default configuration uses reduced problem sizes (paper.Options.Quick) so
// `go test -bench=.` completes in a couple of minutes; the paper-scale runs
// are `go run ./cmd/gbexp -exp all` (a few minutes more) and produce the
// numbers recorded in EXPERIMENTS.md.

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/paper"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// quickOpts runs the reduced-size experiments with runs fanned across all
// cores (Workers 0 = GOMAXPROCS); results are identical to serial runs.
func quickOpts() paper.Options { return paper.Options{Quick: true, Reps: 1} }

// lastMean extracts the mean of a "m±s" or plain cell for metric reporting.
// It fails the benchmark on out-of-range cells or unparsable numbers rather
// than silently reporting 0.
func lastMean(tb testing.TB, t *stats.Table, row, col int) float64 {
	tb.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		tb.Fatalf("lastMean: cell (%d,%d) out of range in %q (%dx%d)",
			row, col, t.Title, len(t.Rows), len(t.Columns))
	}
	cell := t.Rows[row][col]
	if i := strings.IndexRune(cell, '±'); i >= 0 {
		cell = cell[:i]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		tb.Fatalf("lastMean: cell (%d,%d) of %q: %v", row, col, t.Title, err)
	}
	return v
}

func BenchmarkFig01CoordinationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		ts, err := paper.Fig1(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		t := ts[0]
		b.ReportMetric(lastMean(b, t, len(t.Rows)-1, 1), "agg_coord_s")
	}
}

func BenchmarkFig02VCLBlocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		r, err := paper.Fig2(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastMean(b, r.Table, len(r.Table.Rows)-1, 3), "gap_fraction")
	}
}

func BenchmarkTable1GroupFormation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		ts, err := paper.Table1(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		t := ts[0]
		b.ReportMetric(float64(len(t.Rows)), "groups")
	}
}

func BenchmarkFig05ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		as, err := paper.Fig5(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		a := as[0]
		b.ReportMetric(lastMean(b, a, len(a.Rows)-1, 1), "GP_exec_s")
	}
}

func BenchmarkFig06CkptRestartAggregates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		as, err := paper.Fig6(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		a := as[0]
		gp := lastMean(b, a, len(a.Rows)-1, 1)
		norm := lastMean(b, a, len(a.Rows)-1, 4)
		b.ReportMetric(gp, "GP_ckpt_s")
		b.ReportMetric(norm, "NORM_ckpt_s")
	}
}

func BenchmarkFig07ResendData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		ts, err := paper.Fig7(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		t := ts[0]
		b.ReportMetric(lastMean(b, t, len(t.Rows)-1, 2), "GP1_resend_KB")
	}
}

func BenchmarkFig08ResendOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		ts, err := paper.Fig8(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		t := ts[0]
		b.ReportMetric(lastMean(b, t, len(t.Rows)-1, 2), "GP1_ops")
	}
}

func BenchmarkFig09StageBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		ts, err := paper.Fig9(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		t := ts[0]
		// Last row is NORM at the largest scale; column 3 is Coordination.
		b.ReportMetric(lastMean(b, t, len(t.Rows)-1, 3), "NORM_coord_s")
	}
}

func BenchmarkFig10PeriodicCheckpoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		ts, err := paper.Fig10(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		t := ts[0]
		b.ReportMetric(lastMean(b, t, len(t.Rows)-1, 1), "GP_exec_s")
	}
}

func BenchmarkFig11CGClassC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		as, err := paper.Fig11(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		a := as[0]
		b.ReportMetric(lastMean(b, a, len(a.Rows)-1, 1), "GP_ckpt_s")
	}
}

func BenchmarkFig12SPClassC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		as, err := paper.Fig12(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		a := as[0]
		b.ReportMetric(lastMean(b, a, len(a.Rows)-1, 1), "GP_ckpt_s")
	}
}

func BenchmarkFig13RemoteStorageScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		ts, err := paper.Fig13(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		t := ts[0]
		b.ReportMetric(lastMean(b, t, len(t.Rows)-1, 3), "VCL_exec_s")
	}
}

func BenchmarkFig14AvgCheckpointTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		paper.ResetCaches()
		ts, err := paper.Fig14(context.Background(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		t := ts[0]
		b.ReportMetric(lastMean(b, t, len(t.Rows)-1, 2), "VCL_ckpt_s")
	}
}

// ---------------------------------------------------------------------------
// The parallel experiment engine.

// BenchmarkParallelWorkers runs the HPL suite (the experiment behind
// Figures 5–9) serially and with runs fanned across every core. The tables
// are byte-identical at any worker count; only wall-clock time changes, so
// the ratio of the two sub-benchmarks is the engine's speedup.
func BenchmarkParallelWorkers(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"allcores", runtime.GOMAXPROCS(0)}} {
		b.Run(tc.name, func(b *testing.B) {
			o := quickOpts()
			o.Workers = tc.workers
			for i := 0; i < b.N; i++ {
				paper.ResetCaches()
				as, err := paper.Fig5(context.Background(), o)
				if err != nil {
					b.Fatal(err)
				}
				a := as[0]
				b.ReportMetric(lastMean(b, a, len(a.Rows)-1, 1), "GP_exec_s")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations.

// BenchmarkAblationGroupSize sweeps the maximum group size G for HPL at 32
// ranks — the paper's tunable ("the parameter can be adjusted according to
// the hardware environment").
func BenchmarkAblationGroupSize(b *testing.B) {
	for _, g := range []int{2, 4, 8, 16, 32} {
		b.Run("G"+strconv.Itoa(g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				harness.ResetCaches()
				res, err := harness.Run(context.Background(), harness.Spec{
					WL:       workload.NewHPL(5760, 32),
					Mode:     harness.GP,
					Seed:     int64(i),
					Sched:    harness.Schedule{At: 4 * sim.Second},
					GroupMax: g,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(ckpt.AggregateCheckpointTime(res.Records).Seconds(), "agg_ckpt_s")
				b.ReportMetric(float64(len(res.Formation.Groups)), "groups")
			}
		})
	}
}

// BenchmarkAblationNetworkSpeed contrasts Fast Ethernet with a 10× faster
// network: the paper argues faster networks justify larger groups. The
// mechanism visible here: per-connection coordination cost is CPU-bound and
// stays flat, while the application pushes traffic ~2× faster, so the
// logging pressure (logged MB per wall-second) a small-group formation pays
// grows — making larger groups (fewer logged channels) attractive.
func BenchmarkAblationNetworkSpeed(b *testing.B) {
	for _, tc := range []struct {
		name string
		mult float64
	}{{"FastEthernet", 1}, {"10x", 10}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				harness.ResetCaches()
				cfg := cluster.Gideon()
				cfg.NICRate *= tc.mult
				cfg.Latency = sim.Time(float64(cfg.Latency) / tc.mult)
				spec := harness.Spec{
					WL:      workload.NewHPL(5760, 32),
					Mode:    harness.NORM,
					Seed:    7, // fixed: the two variants must be comparable
					Cluster: cfg,
					Sched:   harness.Schedule{At: 4 * sim.Second},
				}
				res, err := harness.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(harness.AggregateCoordination(res.Records).Seconds(), "agg_coord_s")

				spec.Mode = harness.GP1 // every channel logged
				gp, err := harness.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				var logged int64
				for _, ls := range gp.Logs {
					for dst := range gp.Logs {
						if l := ls.Get(dst); l != nil {
							logged += l.Total
						}
					}
				}
				b.ReportMetric(float64(logged)/1e6/gp.ExecTime.Seconds(), "log_MB_per_s")
			}
		})
	}
}
