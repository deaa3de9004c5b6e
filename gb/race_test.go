//go:build race

package gb_test

import (
	"context"
	"testing"

	"repro/gb"
)

// TestParallelKernelMultiGroupRace drives the group-partitioned kernel's
// genuinely concurrent path under the race detector: multi-group cells —
// large enough to split into many partitions — with periodic checkpoints,
// cell metrics, and their event loops spread across 8 worker threads. The
// 4096-rank GP1 cell adds an armed failure process; its singleton groups
// send no bookmarks or barrier tokens, so the 2048-rank GP cell, in
// trace-assisted groups and checkpointed twice, runs the in-group control
// traffic whose envelopes the partitions recycle. The serial default never
// exercises the worker pool, so without this test `make race` would prove
// the partitioned schedule correct while leaving the actual parallel
// execution unobserved. Build-tagged race-only: it rides along with
// `go test -race ./...` and the dedicated `make parallel-race` target.
func TestParallelKernelMultiGroupRace(t *testing.T) {
	t.Run("GP1", func(t *testing.T) {
		failures := gb.PoissonFailures(0.008)
		failures.Max = 2
		res := runPartitioned(t, gb.Synthetic(4096, 8),
			gb.WithMode(gb.GP1),
			gb.WithSchedule(gb.Schedule{Interval: gb.Seconds(0.005)}),
			gb.WithFailures(failures),
		)
		if res.Epochs == 0 {
			t.Error("no checkpoint epochs completed — the cell did not exercise the protocol")
		}
	})
	t.Run("GP", func(t *testing.T) {
		wl := gb.Synthetic(2048, 6)
		wl.Flops = 3e9
		res := runPartitioned(t, wl,
			gb.WithMode(gb.GP),
			gb.WithSchedule(gb.Schedule{Interval: gb.Seconds(0.5), MaxCount: 2}),
		)
		if res.Epochs != 2 {
			t.Errorf("%d checkpoint epochs completed, want 2", res.Epochs)
		}
		if g := len(res.Formation.Groups); g < 2 || g == wl.N {
			t.Errorf("GP formed %d groups of %d ranks; want several multi-rank groups", g, wl.N)
		}
	})
}

// runPartitioned runs one cell of wl on the modern cluster with 8 run
// workers and cell metrics, and checks that its world split into several
// kernel partitions.
func runPartitioned(t *testing.T, wl gb.Workload, opts ...gb.Option) *gb.Result {
	t.Helper()
	opts = append(opts, gb.WithCluster(gb.Modern()), gb.WithObserver(gb.NewMetricsObserver()), gb.WithRunWorkers(8))
	res, err := gb.Run(context.Background(), wl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("metrics observer published no snapshot")
	}
	parts, ok := res.Metrics.Gauge("sim_partitions")
	if !ok || parts < 2 {
		t.Errorf("sim_partitions = %v (ok=%v); the %d-rank world should have split into several partitions", parts, ok, wl.Procs())
	}
	return res
}
