package harness

import (
	"context"
	"testing"

	"repro/internal/group"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRunNormSingleCheckpoint(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(4, 60), Mode: NORM, Seed: 1,
		Sched: Schedule{At: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 1 || len(res.Records) != 4 {
		t.Fatalf("epochs=%d records=%d", res.Epochs, len(res.Records))
	}
	if res.ExecTime <= 0 {
		t.Error("no execution time")
	}
	if res.Name != "NORM" {
		t.Errorf("Name = %q", res.Name)
	}
}

func TestRunGPUsesTracedFormation(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(8, 40), Mode: GP, Seed: 1,
		Sched: Schedule{At: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Formation.Groups) <= 1 {
		t.Errorf("GP formation = %v, want multiple groups", res.Formation.Groups)
	}
	if res.Formation.MaxGroupSize() > 3 { // ⌈√8⌉ = 3
		t.Errorf("formation exceeds default max: %v", res.Formation.Groups)
	}
}

func TestFormationCacheHit(t *testing.T) {
	spec := Spec{WL: workload.NewSynthetic(8, 40), Mode: GP, Seed: 1}
	f1, err := formationFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	before := formationCache.Len()
	f2, err := formationFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if formationCache.Len() != before {
		t.Error("cache grew on identical spec")
	}
	if f1.String() != f2.String() {
		t.Error("cache returned a different formation")
	}
}

func TestRunVCLWithRemoteServers(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(4, 60), Mode: VCL, Seed: 1,
		Sched:         Schedule{At: sim.Second},
		RemoteServers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 1 {
		t.Fatalf("epochs = %d", res.Epochs)
	}
	if res.Name != "VCL" {
		t.Errorf("Name = %q", res.Name)
	}
	// VCL restarts globally with no logs.
	out, err := Restart(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.ResendBytes != 0 {
		t.Errorf("VCL resend = %d", out.ResendBytes)
	}
}

func TestRunUnknownModeFails(t *testing.T) {
	_, err := Run(context.Background(), Spec{WL: workload.NewSynthetic(2, 5), Mode: "bogus", Seed: 1})
	if err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestRestartAfterGPRun(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(8, 60), Mode: GP1, Seed: 3,
		Sched: Schedule{At: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Restart(res, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.AggregateRestartTime() <= 0 {
		t.Error("no restart time")
	}
}

func TestTraceAttached(t *testing.T) {
	obs := NewTraceObserver()
	res, err := Run(context.Background(), Spec{WL: workload.NewSynthetic(2, 10), Mode: NORM, Seed: 1,
		Observers: []Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Error("trace requested but empty")
	}
	if len(obs.rec.Records) != len(res.Trace) {
		t.Errorf("observer records %d != result trace %d", len(obs.rec.Records), len(res.Trace))
	}
}

func TestAggregateCoordinationExcludesWrite(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(4, 60), Mode: NORM, Seed: 1,
		Sched: Schedule{At: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := AggregateCoordination(res.Records)
	total := sim.Time(0)
	for _, r := range res.Records {
		total += r.Duration()
	}
	if coord >= total {
		t.Errorf("coordination %v should be below total %v", coord, total)
	}
	if coord <= 0 {
		t.Error("no coordination time measured")
	}
}

// TestCommMatrixThroughRun exercises the stacked observers: a run with the
// streaming matrix attached exposes Result.Comm, composes with a
// TraceObserver via a Tee (both observers see the same traffic), and
// derives the same formation as the full record trace.
func TestCommMatrixThroughRun(t *testing.T) {
	spec := Spec{
		WL: workload.NewSynthetic(8, 30), Mode: GP1, Seed: 3,
		Sched:     Schedule{At: 2 * sim.Second},
		Observers: []Observer{NewTraceObserver(), NewCommObserver()},
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm == nil {
		t.Fatal("Spec.Comm set but Result.Comm nil")
	}
	if len(res.Trace) == 0 {
		t.Fatal("Spec.Trace set but Result.Trace empty")
	}
	var sends int
	var bytes int64
	for _, r := range res.Trace {
		if !r.Deliver && r.Src != r.Dst {
			sends++
			bytes += r.Bytes
		}
	}
	if res.Comm.Sends() != sends || res.Comm.TotalBytes() != bytes {
		t.Errorf("matrix saw %d sends/%d bytes, recorder saw %d/%d",
			res.Comm.Sends(), res.Comm.TotalBytes(), sends, bytes)
	}
	fm, ft := group.FromMatrix(res.Comm, res.N, 0), group.FromTrace(res.Trace, res.N, 0)
	if fm.String() != ft.String() {
		t.Errorf("matrix formation %q != trace formation %q", fm.String(), ft.String())
	}

	// Comm alone: no record buffering, matrix identical.
	spec.Observers = []Observer{NewCommObserver()}
	only, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(only.Trace) != 0 {
		t.Error("Trace records buffered without a TraceObserver")
	}
	if only.Comm == nil || only.Comm.Sends() != sends {
		t.Errorf("comm-only run folded %v sends, want %d", only.Comm, sends)
	}
}
