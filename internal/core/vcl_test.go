package core

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chattyWorkload builds a tightly-coupled ring workload: every iteration
// depends on the neighbour's message, like CG's non-stop transfers.
func chattyWorkload(n int) *workload.Synthetic {
	wl := workload.NewSynthetic(n, 150)
	wl.Flops = 20e6
	wl.RingBytes = 256 << 10
	wl.Image = 32 << 20
	return wl
}

// runVCL runs the workload under VCL with one checkpoint and the given
// number of servers of the given disk rate, returning execution time.
func runVCL(t *testing.T, n, servers int, srvNIC float64) (sim.Time, *VCL) {
	t.Helper()
	k := sim.NewKernel(1)
	cfg := cluster.Gideon()
	cfg.JitterFrac = 0
	cfg.DaemonEvery = 0
	c := cluster.New(k, n, cfg)
	w := mpi.NewWorld(k, c, n)
	wl := chattyWorkload(n)
	rs := cluster.NewRemoteStore(c, servers, srvNIC, 100e6)
	v := NewVCL(w, rs, wl.ImageBytes)
	v.ScheduleAt(2 * sim.Second)
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
	return exec, v
}

func TestVCLServerContentionStretchesCheckpoints(t *testing.T) {
	// Same application, same total server disk speed, but fewer/slower
	// NIC paths: checkpoint duration must grow and stall the ring.
	fast, _ := runVCL(t, 8, 8, 100e6) // ample server bandwidth
	slow, v := runVCL(t, 8, 1, 5e6)   // one 5 MB/s ingest path for all
	if slow <= fast {
		t.Errorf("server contention did not slow execution: fast=%v slow=%v", fast, slow)
	}
	// The checkpoint records should show long writes under contention.
	var maxWrite sim.Time
	for _, r := range v.Records() {
		if w := r.Stages[ckpt.StageWrite]; w > maxWrite {
			maxWrite = w
		}
	}
	// 8 ranks × 32 MB over a 5 MB/s path ⇒ the last dump waits ~51 s.
	if maxWrite < 20*sim.Second {
		t.Errorf("max write stage = %v, want heavy queueing", maxWrite)
	}
}

func TestVCLBlockingEmergesAtScale(t *testing.T) {
	// The "non-blocking turns blocking" effect: with shared servers, the
	// fraction of execution spent inside checkpoint spans grows with the
	// number of ranks (paper Figure 2's 32 vs 128 contrast).
	share := func(n int) float64 {
		k := sim.NewKernel(1)
		cfg := cluster.Gideon()
		cfg.JitterFrac = 0
		cfg.DaemonEvery = 0
		c := cluster.New(k, n, cfg)
		w := mpi.NewWorld(k, c, n)
		wl := chattyWorkload(n)
		rs := cluster.NewRemoteStore(c, 4, 12.5e6, 40e6)
		v := NewVCL(w, rs, wl.ImageBytes)
		v.SchedulePeriodic(2*sim.Second, 5*sim.Second, 0)
		w.Launch(wl.Body)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var exec, inCkpt sim.Time
		for _, r := range w.Ranks {
			if r.FinishTime > exec {
				exec = r.FinishTime
			}
		}
		for _, s := range v.EpochSpans() {
			inCkpt += s.To - s.From
		}
		return float64(inCkpt) / float64(exec)
	}
	small := share(4)
	large := share(16)
	if large <= small {
		t.Errorf("checkpoint share did not grow with scale: %v vs %v", small, large)
	}
}

func TestVCLChannelLogging(t *testing.T) {
	// Messages delivered between a rank's snapshot and the peers' markers
	// count as channel state.
	k := sim.NewKernel(1)
	cfg := cluster.Gideon()
	cfg.JitterFrac = 0
	cfg.DaemonEvery = 0
	c := cluster.New(k, 4, cfg)
	w := mpi.NewWorld(k, c, 4)
	wl := chattyWorkload(4)
	rs := cluster.NewRemoteStore(c, 1, 2e6, 40e6) // slow: long recording window
	v := NewVCL(w, rs, wl.ImageBytes)
	v.ScheduleAt(2 * sim.Second)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ChannelLogged() < 0 {
		t.Fatal("negative channel log")
	}
	// With staggered dumps on one slow server, some in-transit traffic is
	// essentially always recorded.
	if v.ChannelLogged() == 0 {
		t.Error("no channel state recorded despite long staggered dumps")
	}
}

func TestGroupFormationEquivalenceNORMIsOneGroup(t *testing.T) {
	// Sanity: the NORM configuration really is Algorithm 1 with one
	// group — no logs, global barrier, and a global drain.
	k := sim.NewKernel(2)
	cfg := cluster.Gideon()
	cfg.JitterFrac = 0
	cfg.DaemonEvery = 0
	c := cluster.New(k, 6, cfg)
	w := mpi.NewWorld(k, c, 6)
	wl := chattyWorkload(6)
	e := NewEngine(w, DefaultConfig(group.Global(6), wl.ImageBytes))
	e.ScheduleAt(2 * sim.Second)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if b, _ := totalLogged(e.LogSets()); b != 0 {
		t.Errorf("NORM logged %d bytes", b)
	}
	for _, s := range e.Snapshots() {
		if len(s.SentTo) != 0 {
			t.Errorf("rank %d has out-of-group peers under NORM", s.Rank)
		}
	}
	// All ranks' checkpoints overlap (global coordination).
	recs := e.Records()
	var earliestEnd, latestStart sim.Time = 1 << 62, 0
	for _, r := range recs {
		if r.End < earliestEnd {
			earliestEnd = r.End
		}
		if r.Start > latestStart {
			latestStart = r.Start
		}
	}
	if earliestEnd < latestStart {
		t.Error("NORM checkpoints did not overlap — not globally coordinated")
	}
}
