package ckpt

import (
	"testing"

	"repro/internal/sim"
)

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageLock:     "Lock MPI",
		StageCoord:    "Coordination",
		StageWrite:    "Checkpoint",
		StageFinalize: "Finalize",
		Stage(9):      "Stage(9)",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", int(s), s.String(), name)
		}
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{sim.Second, 2 * sim.Second, 3 * sim.Second, 4 * sim.Second}
	b := Breakdown{sim.Second, sim.Second, sim.Second, sim.Second}
	sum := a.Add(b)
	var total sim.Time
	for _, d := range sum {
		total += d
	}
	if total != 14*sim.Second {
		t.Errorf("Total = %v", total)
	}
	half := sum.Scale(2)
	if half[StageLock] != sim.Second || half[StageFinalize] != sim.Time(2.5*float64(sim.Second)) {
		t.Errorf("Scale = %v", half)
	}
	if got := a.Scale(0); got != a {
		t.Errorf("Scale(0) changed value: %v", got)
	}
}

func TestRecordDurationAndAggregate(t *testing.T) {
	recs := []Record{
		{Rank: 0, Start: sim.Second, End: 3 * sim.Second},
		{Rank: 1, Start: sim.Second, End: 2 * sim.Second},
	}
	if recs[0].Duration() != 2*sim.Second {
		t.Errorf("Duration = %v", recs[0].Duration())
	}
	if got := AggregateCheckpointTime(recs); got != 3*sim.Second {
		t.Errorf("Aggregate = %v", got)
	}
}

func TestMeanBreakdown(t *testing.T) {
	recs := []Record{
		{Stages: Breakdown{2 * sim.Second, 0, 0, 0}},
		{Stages: Breakdown{4 * sim.Second, 0, 0, 0}},
	}
	m := MeanBreakdown(recs)
	if m[StageLock] != 3*sim.Second {
		t.Errorf("mean lock = %v", m[StageLock])
	}
}
