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

// runInjected runs the synthetic workload under formation f with periodic
// checkpoints and a Poisson injector, returning the outcomes and exec time.
func runInjected(t *testing.T, f group.Formation, mtbf sim.Time, seed int64) ([]Outcome, sim.Time) {
	t.Helper()
	const n = 8
	k := sim.NewKernel(11)
	c := cluster.New(k, n, cluster.Gideon())
	w := mpi.NewWorld(k, c, n)
	wl := workload.NewSynthetic(n, 150)
	e := core.NewEngine(w, core.DefaultConfig(f, wl.ImageBytes))
	e.SchedulePeriodic(2*sim.Second, 2*sim.Second, 0)
	inj := NewInjector(w, f, e, Poisson{MTBF: mtbf}, seed, 0)
	inj.Arm()
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var exec sim.Time
	for _, r := range w.Ranks {
		if r.FinishTime > exec {
			exec = r.FinishTime
		}
	}
	return inj.Outcomes(), exec
}

func TestInjectorFiresMultipleFailures(t *testing.T) {
	f := group.Fixed(8, 4)
	outs, exec := runInjected(t, f, 3*sim.Second, 5)
	if len(outs) < 2 {
		t.Fatalf("got %d failures over a %v run, want several", len(outs), exec)
	}
	for i, o := range outs {
		if o.At <= 0 || (i > 0 && o.At <= outs[i-1].At) {
			t.Errorf("failure times not increasing: %v", outs)
		}
		if o.FailedNode < 0 || o.FailedNode >= 8 {
			t.Errorf("failure %d struck node %d out of range", i, o.FailedNode)
		}
		if want := f.GroupOf(o.FailedNode); o.FailedGroup != want {
			t.Errorf("failure %d: group %d, want group of node %d = %d", i, o.FailedGroup, o.FailedNode, want)
		}
	}
}

func TestInjectorGroupBeatsGlobal(t *testing.T) {
	outs, _ := runInjected(t, group.Fixed(8, 4), 3*sim.Second, 5)
	tot := Sum(outs)
	if tot.WorkLossGrp >= tot.WorkLossGlb {
		t.Errorf("group restart loss %v not below global loss %v", tot.WorkLossGrp, tot.WorkLossGlb)
	}
	if tot.WorkSaved() <= 0 {
		t.Errorf("no work saved: %+v", tot)
	}
}

func TestInjectorGlobalFormationSavesNothing(t *testing.T) {
	outs, _ := runInjected(t, group.Global(8), 3*sim.Second, 5)
	if len(outs) == 0 {
		t.Fatal("no failures injected")
	}
	for _, o := range outs {
		if o.WorkLossGrp != o.WorkLossGlb {
			t.Errorf("NORM: group loss %v != global loss %v", o.WorkLossGrp, o.WorkLossGlb)
		}
		if o.ReplayBytes != 0 || o.ReplayPairs != 0 {
			t.Errorf("NORM logged nothing, but replay = %d bytes / %d pairs", o.ReplayBytes, o.ReplayPairs)
		}
	}
}

// TestReplayBoundedByLogs: at every injected failure, what out-of-group
// peers replay to the failed group is covered by the log bytes they hold
// toward it, and replayed bytes come over at least one peer session.
func TestReplayBoundedByLogs(t *testing.T) {
	outs, _ := runInjected(t, group.Fixed(8, 4), 3*sim.Second, 5)
	if len(outs) == 0 {
		t.Fatal("no failures injected")
	}
	for i, o := range outs {
		if o.ReplayBytes > o.LogHeldBytes {
			t.Errorf("failure %d: replay %d exceeds the %d bytes logged toward the failed ranks", i, o.ReplayBytes, o.LogHeldBytes)
		}
		if o.ReplayBytes > 0 && o.ReplayPairs == 0 {
			t.Errorf("failure %d: replay bytes without replay pairs", i)
		}
	}
}

func TestInjectorFailureBeforeFirstCheckpointRestartsFromZero(t *testing.T) {
	const n = 4
	k := sim.NewKernel(2)
	c := cluster.New(k, n, cluster.Gideon())
	w := mpi.NewWorld(k, c, n)
	wl := workload.NewSynthetic(n, 80)
	f := group.Singletons(n)
	e := core.NewEngine(w, core.DefaultConfig(f, wl.ImageBytes))
	e.ScheduleAt(30 * sim.Second) // far beyond the first failure
	inj := NewInjector(w, f, e, Poisson{MTBF: 2 * sim.Second}, 9, 1)
	inj.Arm()
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	outs := inj.Outcomes()
	if len(outs) != 1 {
		t.Fatalf("outcomes = %d, want exactly 1 (MaxFailures)", len(outs))
	}
	o := outs[0]
	// No checkpoint existed: the failed rank loses everything since t=0,
	// and a global restart loses that much on every rank.
	if o.WorkLossGrp != o.At {
		t.Errorf("pre-checkpoint failure at %v lost %v for the failed rank, want the full span", o.At, o.WorkLossGrp)
	}
	if o.WorkLossGlb < sim.Time(n-1)*o.At {
		t.Errorf("global loss %v, want ≈ n×%v", o.WorkLossGlb, o.At)
	}
}

func TestInjectorDeterministicAndObservational(t *testing.T) {
	// Same seeds → identical outcomes; and the injector must not change
	// the simulation's own trajectory (exec time matches a run without).
	outs1, exec1 := runInjected(t, group.Fixed(8, 4), 3*sim.Second, 5)
	outs2, exec2 := runInjected(t, group.Fixed(8, 4), 3*sim.Second, 5)
	if len(outs1) != len(outs2) || exec1 != exec2 {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v", len(outs1), exec1, len(outs2), exec2)
	}
	for i := range outs1 {
		if outs1[i].At != outs2[i].At || outs1[i].FailedNode != outs2[i].FailedNode ||
			outs1[i].WorkLossGrp != outs2[i].WorkLossGrp || outs1[i].ReplayBytes != outs2[i].ReplayBytes {
			t.Fatalf("outcome %d diverged: %+v vs %+v", i, outs1[i], outs2[i])
		}
	}

	// Observational: a run with no injector finishes at the same instant.
	const n = 8
	k := sim.NewKernel(11)
	c := cluster.New(k, n, cluster.Gideon())
	w := mpi.NewWorld(k, c, n)
	wl := workload.NewSynthetic(n, 150)
	e := core.NewEngine(w, core.DefaultConfig(group.Fixed(8, 4), wl.ImageBytes))
	e.SchedulePeriodic(2*sim.Second, 2*sim.Second, 0)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var exec sim.Time
	for _, r := range w.Ranks {
		if r.FinishTime > exec {
			exec = r.FinishTime
		}
	}
	if exec != exec1 {
		t.Errorf("armed injector changed the run: exec %v with vs %v without", exec1, exec)
	}
}
