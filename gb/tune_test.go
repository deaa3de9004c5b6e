package gb_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/gb"
)

// ladderTuneSpec is a small but real search: every cell is a full
// simulation, sized so the whole ladder runs in well under a second per
// worker count.
func ladderTuneSpec() *gb.TuneSpec {
	return &gb.TuneSpec{
		Base: &gb.Scenario{
			Name:       "ladder",
			Cluster:    gb.ScenarioCluster{Profile: "modern"},
			Workload:   gb.ScenarioWorkload{Kind: "synthetic", Iters: 40, MFlopsPerIter: 3000},
			Modes:      []string{"GP"},
			Checkpoint: gb.ScenarioCheckpoint{IntervalS: 1},
			Failures:   &gb.ScenarioFailures{Process: "poisson", MTBFS: 3},
			Seed:       7,
		},
		Objective:  "lost",
		Modes:      []string{"GP", "GP1"},
		IntervalsS: []float64{0.5, 1},
		Rungs: []gb.TuneRung{
			{Scale: 16, Reps: 1},
			{Scale: 32, Reps: 2},
		},
		Eta: 2,
	}
}

// TestTuneWorkerLadder: the recommendation report must be byte-identical
// at workers 1, 4, and NumCPU — the repo-wide determinism bar, now for the
// whole closed loop (search scheduling, memo accounting, report
// rendering), not just individual cells.
func TestTuneWorkerLadder(t *testing.T) {
	var ref []byte
	var refWorkers int
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		rep, err := gb.Tune(context.Background(), ladderTuneSpec(), gb.WithWorkers(workers))
		if err != nil {
			t.Fatalf("Tune(workers=%d): %v", workers, err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		b := append([]byte(rep.Text()), j...)
		if ref == nil {
			ref, refWorkers = b, workers
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Errorf("report at workers=%d differs from workers=%d", workers, refWorkers)
		}
	}
}

// TestTuneSeedOverride: WithSeed reroutes every derived cell seed, so the
// report must change with it — and be reproducible per seed.
func TestTuneSeedOverride(t *testing.T) {
	run := func(seed int64) []byte {
		rep, err := gb.Tune(context.Background(), ladderTuneSpec(), gb.WithSeed(seed))
		if err != nil {
			t.Fatalf("Tune(seed=%d): %v", seed, err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a1, a2, b := run(11), run(11), run(13)
	if !bytes.Equal(a1, a2) {
		t.Error("same seed produced different reports")
	}
	if bytes.Equal(a1, b) {
		t.Error("different seeds produced identical reports (override not applied)")
	}
}

// TestTuneOptionScopes: options outside the Tune scope are rejected with
// ErrBadSpec, not silently ignored.
func TestTuneOptionScopes(t *testing.T) {
	for name, opt := range map[string]gb.Option{
		"WithHorizon":     gb.WithHorizon(gb.Time(1e9)),
		"WithCellMetrics": gb.WithCellMetrics(),
		"WithMode":        gb.WithMode(gb.GP),
		"WithGroupMax":    gb.WithGroupMax(4),
	} {
		_, err := gb.Tune(context.Background(), ladderTuneSpec(), opt)
		if !errors.Is(err, gb.ErrBadSpec) {
			t.Errorf("%s in Tune scope: err = %v, want ErrBadSpec", name, err)
		}
	}
}

// TestTuneModernWeibull: the acceptance bar. On a modern-cluster Weibull
// infant-mortality profile (the modern-weibull scenario family, scaled to
// test budget), the tuner's recommended policy must measure rank-seconds
// lost no worse than any cell of the classic group-size ablation grid
// (G ∈ {2,4,8,16,32}, the paper's tunable) — and no worse than the spec's
// own baseline policy.
func TestTuneModernWeibull(t *testing.T) {
	ts := &gb.TuneSpec{
		Base: &gb.Scenario{
			Name:       "modern-weibull-tune",
			Cluster:    gb.ScenarioCluster{Profile: "modern"},
			Workload:   gb.ScenarioWorkload{Kind: "synthetic", Iters: 100, MFlopsPerIter: 3000},
			Modes:      []string{"GP"},
			Checkpoint: gb.ScenarioCheckpoint{IntervalS: 10},
			Failures:   &gb.ScenarioFailures{Process: "weibull", Shape: 0.7, MTBFS: 12},
			Seed:       42,
		},
		Objective:  "lost",
		Modes:      []string{"GP", "GP1"},
		GroupMax:   []int{2, 4, 8, 16, 32},
		IntervalsS: []float64{5, 10, 20},
		Rungs: []gb.TuneRung{
			{Scale: 64, Reps: 1},
			{Scale: 128, Reps: 1},
		},
	}
	rep, err := gb.Tune(context.Background(), ts)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if rep.Objective != "lost" || rep.Scale != 128 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	// The ablation grid: the groupMax sensitivity curve holds the winner's
	// interval and storage while G sweeps the classic axis, measured at
	// the final rung. The winner must be ≤ every point.
	var sawGrid bool
	for _, curve := range rep.Sensitivity {
		if curve.Dimension != "groupMax" {
			continue
		}
		sawGrid = true
		if len(curve.Points) != 5 {
			t.Fatalf("groupMax curve has %d points, want 5", len(curve.Points))
		}
		for _, p := range curve.Points {
			if p.Score == nil {
				t.Errorf("groupMax=%s infeasible at final rung", p.Value)
				continue
			}
			if rep.Score > *p.Score {
				t.Errorf("winner score %.6g worse than ablation cell G=%s (%.6g)", rep.Score, p.Value, *p.Score)
			}
		}
	}
	if !sawGrid && rep.Winner.Mode == "GP" {
		t.Error("no groupMax sensitivity curve for a GP winner")
	}
	if b := rep.Baseline; b == nil {
		t.Error("baseline missing")
	} else if b.Score != nil && rep.Score > *b.Score {
		t.Errorf("winner score %.6g worse than baseline %.6g — the guard must have promoted the baseline", rep.Score, *b.Score)
	}
}
