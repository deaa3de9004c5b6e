package core

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mpi"
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

// TestDaemonsDormantBetweenEpochs: the checkpoint daemons of a
// partitioned 1024-rank GP1 cell with two periodic epochs hold no
// coroutine while they wait. Before the first epoch, a global event finds,
// beside the goroutines the test started with, one coroutine per
// application rank still running and one for mpirun's periodic schedule:
// none for the daemons, where daemons that kept their coroutines between
// requests would add n. Between the epochs it finds the same plus the idle
// coroutines the first epoch's bodies handed back, one per body that ran
// at once, which stays well under n because the signal jitter spreads the
// bodies out.
func TestDaemonsDormantBetweenEpochs(t *testing.T) {
	const n = 1024
	before := runtime.NumGoroutine()
	f := group.Singletons(n)
	partOf, nparts := PartitionPlan(f, 16)
	k := sim.NewKernel(1)
	w := mpi.NewWorld(k, cluster.New(k, n, cluster.Modern()), n)
	w.SetPartitions(partOf, nparts)
	wl := workload.NewSynthetic(n, 40)
	wl.Flops = 1e9 // 50 ms an iteration on the modern profile's 20 Gflop/s
	e := NewEngine(w, DefaultConfig(f, wl.ImageBytes))
	e.SchedulePeriodic(500*sim.Millisecond, sim.Second, 2)
	w.Launch(wl.Body)

	type probe struct {
		at            sim.Time
		live, running int
	}
	probes := []*probe{{at: 400 * sim.Millisecond}, {at: 1200 * sim.Millisecond}}
	for _, pr := range probes {
		k.GlobalAt(pr.at, func() {
			pr.live = runtime.NumGoroutine() - before
			for _, r := range w.Ranks {
				if !r.Finished {
					pr.running++
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	spans := e.EpochSpans()
	if len(spans) != 2 || spans[0].From <= probes[0].at || spans[0].To >= probes[1].at || spans[1].From <= probes[1].at {
		t.Fatalf("epochs %v do not follow the probes at %v and %v", spans, probes[0].at, probes[1].at)
	}
	for _, pr := range probes {
		if pr.running == 0 {
			t.Fatalf("no rank was still running at %v", pr.at)
		}
	}
	if pr := probes[0]; pr.live != pr.running+1 {
		t.Errorf("%v into the run, before the first epoch: %d goroutines beside the test's, want %d (%d running ranks and mpirun; %d daemons dormant)",
			pr.at, pr.live, pr.running+1, pr.running, n)
	}
	if pr := probes[1]; pr.live < pr.running+1 || pr.live-pr.running-1 >= n/2 {
		t.Errorf("%v into the run, between epochs: %d goroutines beside the test's, %d running ranks and mpirun; want fewer than %d idle coroutines beside them",
			pr.at, pr.live, pr.running+1, n/2)
	}
}

// TestControlEnvelopesRecycled: a partitioned 1024-rank GP cell in 16
// groups of 64, checkpointed twice, takes every control envelope of its
// second epoch from the world's pool and gets nearly all of them back from
// it. Between a probe after the first epoch and one after the second, the
// pool hands out exactly one envelope per application send in the window
// plus one per control message of the epoch, counted from the formation:
// per rank of a group of g, one request, g−1 bookmarks, one barrier token
// per dissemination round and one done reply. A control plane that
// bypassed the pool fails that count. Of those envelopes, the pool creates
// only the few a partition's free list lacks when it has more envelopes out
// at once than in the first epoch: 205 in this cell, against the epoch's
// 72,704 control messages. A receive that kept its control envelopes would
// make the pool create one per bookmark, token and reply.
func TestControlEnvelopesRecycled(t *testing.T) {
	const n, groups = 1024, 16
	f := group.Fixed(n, groups)
	partOf, nparts := PartitionPlan(f, groups)
	k := sim.NewKernel(1)
	w := mpi.NewWorld(k, cluster.New(k, n, cluster.Modern()), n)
	w.SetPartitions(partOf, nparts)
	wl := workload.NewSynthetic(n, 120)
	wl.Flops = 1e9 // 50 ms an iteration on the modern profile's 20 Gflop/s
	e := NewEngine(w, DefaultConfig(f, wl.ImageBytes))
	e.SchedulePeriodic(500*sim.Millisecond, 5*sim.Second, 2)
	w.Launch(wl.Body)

	probeAt := []sim.Time{5 * sim.Second, 10 * sim.Second}
	stats := make([]mpi.Stats, len(probeAt))
	for i, at := range probeAt {
		k.GlobalAt(at, func() { stats[i] = w.Stats() })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	spans := e.EpochSpans()
	if len(spans) != 2 || spans[0].To >= probeAt[0] || spans[1].From <= probeAt[0] || spans[1].To >= probeAt[1] {
		t.Fatalf("epochs %v: the second does not fall between the probes at %v and %v", spans, probeAt[0], probeAt[1])
	}
	ctrl := 0
	for _, g := range f.Groups {
		rounds := 0 // ctrlBarrier's dissemination rounds
		for d := 1; d < len(g); d *= 2 {
			rounds++
		}
		ctrl += len(g) * (1 + len(g) - 1 + rounds + 1)
	}
	before, after := stats[0], stats[1]
	sends := after.Sends - before.Sends
	created := after.PoolCreated - before.PoolCreated
	if taken := created + after.PoolReused - before.PoolReused; taken != sends+ctrl {
		t.Errorf("the pool handed out %d envelopes during the second epoch, want %d: %d application sends and %d control messages",
			taken, sends+ctrl, sends, ctrl)
	}
	if created*100 > ctrl {
		t.Errorf("the pool created %d envelopes during the second epoch, more than 1 in 100 of its %d control messages", created, ctrl)
	}
	if after.DoubleFrees != 0 || after.FreeLen != after.PoolFreed-after.PoolReused {
		t.Errorf("corrupt pool accounting: %+v", after)
	}
}
