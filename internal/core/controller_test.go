package core

import (
	"testing"

	"repro/internal/group"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestConcurrentEpochsDoNotCrossMatch(t *testing.T) {
	// A one-off checkpoint and a periodic schedule starting at the same
	// instant (a spec setting both atS and intervalS) put two epochs in
	// flight at once; the runs must not deadlock or lose done replies.
	const n = 8
	k, w := buildWorld(3, n)
	wl := workload.NewSynthetic(n, 240)
	f := group.Fixed(n, 2)
	e := NewEngine(w, DefaultConfig(f, wl.ImageBytes))
	e.ScheduleAt(2 * sim.Second)
	e.SchedulePeriodic(2*sim.Second, 3*sim.Second, 3)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Epochs() != 4 {
		t.Errorf("epochs = %d, want 4 (1 one-off + 3 periodic)", e.Epochs())
	}
}

func TestScheduleAtStopsWhenAppFinished(t *testing.T) {
	// A periodic schedule must not keep checkpointing after the
	// application completes.
	const n = 4
	k, w := buildWorld(1, n)
	wl := workload.NewSynthetic(n, 20) // ~1s of work
	e := NewEngine(w, DefaultConfig(group.Global(n), wl.ImageBytes))
	e.SchedulePeriodic(sim.Second, sim.Second, 0)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Epochs() > 3 {
		t.Errorf("checkpointing continued after app finished: %d epochs", e.Epochs())
	}
}
