package failure

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runWithFailureProbe runs the synthetic workload under formation f with a
// checkpoint at 2s and a probe at 4s.
func runWithFailureProbe(t *testing.T, f group.Formation) (*Probe, *core.Engine) {
	t.Helper()
	const n = 8
	k := sim.NewKernel(7)
	cfg := cluster.Gideon()
	c := cluster.New(k, n, cfg)
	w := mpi.NewWorld(k, c, n)
	wl := workload.NewSynthetic(n, 120)
	wl.CrossEach = 2
	e := core.NewEngine(w, core.DefaultConfig(f, wl.ImageBytes))
	e.ScheduleAt(sim.Seconds(2))
	pr := &Probe{}
	pr.Arm(w, sim.Seconds(4))
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return pr, e
}

func TestProbeCaptures(t *testing.T) {
	pr, _ := runWithFailureProbe(t, group.Fixed(8, 2))
	if !pr.Captured {
		t.Fatal("probe did not capture")
	}
	var total int64
	for i := range pr.SentTo {
		for q := range pr.SentTo[i] {
			total += pr.SentTo[i][q]
		}
	}
	if total == 0 {
		t.Error("no traffic captured at failure instant")
	}
}

func TestGroupRestartSavesWork(t *testing.T) {
	f := group.Fixed(8, 2)
	pr, e := runWithFailureProbe(t, f)
	out, err := Evaluate(pr, f, e.Snapshots(), e.LogSets(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.FailedRanks) != 4 {
		t.Fatalf("failed ranks = %v", out.FailedRanks)
	}
	if out.WorkLossGrp <= 0 {
		t.Error("no work loss for the failed group")
	}
	if out.WorkSaved() <= 0 {
		t.Error("group restart saved no work over global restart")
	}
	// Half the ranks fail → roughly half the global loss is saved.
	ratio := float64(out.WorkLossGrp) / float64(out.WorkLossGlb)
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("group/global loss ratio = %v, want ≈0.5", ratio)
	}
}

func TestGlobalFormationSavesNothing(t *testing.T) {
	f := group.Global(8)
	pr, e := runWithFailureProbe(t, f)
	out, err := Evaluate(pr, f, e.Snapshots(), e.LogSets(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.WorkSaved() != 0 {
		t.Errorf("global restart cannot save work, got %v", out.WorkSaved())
	}
	if out.ReplayBytes != 0 {
		t.Errorf("global formation has no out-of-group replay, got %d", out.ReplayBytes)
	}
}

func TestReplayBoundedByLogs(t *testing.T) {
	f := group.Fixed(8, 2)
	pr, e := runWithFailureProbe(t, f)
	out, err := Evaluate(pr, f, e.Snapshots(), e.LogSets(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var logged int64
	for _, ls := range e.LogSets() {
		for dst := 0; dst < f.N; dst++ {
			if l := ls.Get(dst); l != nil {
				logged += l.Total
			}
		}
	}
	if out.ReplayBytes > logged {
		t.Errorf("replay %d exceeds total logged %d", out.ReplayBytes, logged)
	}
	if out.ReplayBytes > 0 && out.ReplayPairs == 0 {
		t.Error("replay bytes without replay pairs")
	}
}

func TestEvaluateErrors(t *testing.T) {
	f := group.Fixed(8, 2)
	pr, e := runWithFailureProbe(t, f)
	if _, err := Evaluate(pr, f, e.Snapshots(), e.LogSets(), 9); err == nil {
		t.Error("bad group index accepted")
	}
	if _, err := Evaluate(&Probe{}, f, e.Snapshots(), e.LogSets(), 0); err == nil {
		t.Error("uncaptured probe accepted")
	}
}
