package core

import (
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mlog"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workload"
)

// quietCluster returns a noise-free cluster config for deterministic tests.
func quietCluster() cluster.Config {
	cfg := cluster.Gideon()
	cfg.JitterFrac = 0
	cfg.DaemonEvery = 0
	return cfg
}

// buildWorld sets up kernel, cluster, and world for n ranks.
func buildWorld(seed int64, n int) (*sim.Kernel, *mpi.World) {
	k := sim.NewKernel(seed)
	c := cluster.New(k, n, quietCluster())
	return k, mpi.NewWorld(k, c, n)
}

// totalLogged sums the bytes and messages every rank logged, read per
// destination log the way restart and the invariant oracle read them.
func totalLogged(sets []*mlog.Set) (int64, int) {
	var b int64
	var m int
	for _, s := range sets {
		for d := range sets {
			if l := s.Get(d); l != nil {
				b += l.Total
				m += l.TotalMsgs
			}
		}
	}
	return b, m
}

// runSynthetic runs the synthetic workload under the given formation with
// one checkpoint at ckptAt, returning the engine.
func runSynthetic(t *testing.T, seed int64, n int, f group.Formation, ckptAt sim.Time) (*Engine, *mpi.World) {
	t.Helper()
	k, w := buildWorld(seed, n)
	wl := workload.NewSynthetic(n, 100) // ~5s of work per rank
	e := NewEngine(w, DefaultConfig(f, wl.ImageBytes))
	if ckptAt > 0 {
		e.ScheduleAt(ckptAt)
	}
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatalf("run under %s: %v", e.Name(), err)
	}
	return e, w
}

func TestEngineNames(t *testing.T) {
	n := 8
	for _, tc := range []struct {
		f    group.Formation
		want string
	}{
		{group.Global(n), "NORM"},
		{group.Singletons(n), "GP1"},
		{group.Fixed(n, 4), "GP(4 groups)"},
	} {
		k, w := buildWorld(1, n)
		_ = k
		e := NewEngine(w, DefaultConfig(tc.f, nil))
		if e.Name() != tc.want {
			t.Errorf("Name = %q, want %q", e.Name(), tc.want)
		}
	}
}

func TestNormCheckpointCompletes(t *testing.T) {
	const n = 8
	e, _ := runSynthetic(t, 1, n, group.Global(n), sim.Seconds(2))
	if e.Epochs() != 1 {
		t.Fatalf("epochs = %d", e.Epochs())
	}
	recs := e.Records()
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	for _, r := range recs {
		if r.Duration() <= 0 {
			t.Errorf("rank %d: non-positive checkpoint duration", r.Rank)
		}
		if r.Stages[ckpt.StageWrite] <= 0 {
			t.Errorf("rank %d: no image-write time", r.Rank)
		}
		if r.ImageBytes != 8<<20 {
			t.Errorf("rank %d: image = %d", r.Rank, r.ImageBytes)
		}
	}
	// NORM logs nothing.
	if b, m := totalLogged(e.LogSets()); b != 0 || m != 0 {
		t.Errorf("NORM logged %d bytes / %d msgs", b, m)
	}
}

// TestDrainTouchesOnlyLiveChannels: the bookmark drain waits only on
// channels with bytes outstanding, so a NORM group far wider than the ring's
// neighbourhood leaves its silent in-group pairs untouched — the world's
// flow table lists exactly the pairs that carried application bytes.
func TestDrainTouchesOnlyLiveChannels(t *testing.T) {
	const n = 8
	e, w := runSynthetic(t, 1, n, group.Global(n), sim.Seconds(2))
	if e.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", e.Epochs())
	}
	want := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		want[[2]int{i, (i + 1) % n}] = true   // ring
		want[[2]int{i, (i + n/2) % n}] = true // cross partner
	}
	flows := w.PairFlows()
	for _, f := range flows {
		if !want[[2]int{f.Src, f.Dst}] || f.Sent == 0 || f.Recvd == 0 || f.Consumed == 0 {
			t.Errorf("flow %d→%d (sent %d, recvd %d, consumed %d) carried no application traffic",
				f.Src, f.Dst, f.Sent, f.Recvd, f.Consumed)
		}
	}
	if len(flows) != len(want) {
		t.Errorf("%d flows, want the %d communicating pairs", len(flows), len(want))
	}
}

func TestGP1LogsEverythingAndSkipsCoordination(t *testing.T) {
	const n = 8
	e, w := runSynthetic(t, 1, n, group.Singletons(n), sim.Seconds(2))
	b, m := totalLogged(e.LogSets())
	if b == 0 || m == 0 {
		t.Fatal("GP1 logged nothing")
	}
	// Every application byte sent must have been logged.
	var sent int64
	for _, r := range w.Ranks {
		for q := 0; q < n; q++ {
			sent += r.SentBytes(q)
		}
	}
	if b != sent {
		t.Errorf("logged %d bytes, sent %d", b, sent)
	}
	// No bookmark/drain/barrier: coordination is only the log flush.
	mean := ckpt.MeanBreakdown(e.Records())
	if mean[ckpt.StageFinalize] > sim.Millisecond {
		t.Errorf("GP1 finalize = %v, want ~0 (no barrier)", mean[ckpt.StageFinalize])
	}
}

func TestGroupLogsOnlyInterGroupTraffic(t *testing.T) {
	const n = 8
	f := group.Fixed(n, 2) // {0..3}, {4..7}
	e, w := runSynthetic(t, 1, n, f, sim.Seconds(2))
	logged, _ := totalLogged(e.LogSets())
	var inter, intra int64
	for _, r := range w.Ranks {
		for q := 0; q < n; q++ {
			if q == r.ID {
				continue
			}
			if f.SameGroup(r.ID, q) {
				intra += r.SentBytes(q)
			} else {
				inter += r.SentBytes(q)
			}
		}
	}
	if intra == 0 || inter == 0 {
		t.Fatal("workload did not generate both intra- and inter-group traffic")
	}
	if logged != inter {
		t.Errorf("logged %d bytes, want exactly the inter-group %d", logged, inter)
	}
}

func TestCheckpointFreezesApplication(t *testing.T) {
	// Execution time with a checkpoint must exceed execution without.
	const n = 4
	base, _ := runSynthetic(t, 1, n, group.Global(n), 0)
	_ = base
	k0, w0 := buildWorld(1, n)
	wl := workload.NewSynthetic(n, 100)
	w0.Launch(wl.Body)
	if err := k0.Run(); err != nil {
		t.Fatal(err)
	}
	noCkpt := w0.Ranks[0].FinishTime

	_, w1 := runSynthetic(t, 1, n, group.Global(n), sim.Seconds(2))
	withCkpt := w1.Ranks[0].FinishTime
	if withCkpt <= noCkpt {
		t.Errorf("checkpoint did not delay the app: %v vs %v", withCkpt, noCkpt)
	}
}

func TestSnapshotsRecordOutOfGroupVolumes(t *testing.T) {
	const n = 8
	f := group.Fixed(n, 2)
	e, _ := runSynthetic(t, 1, n, f, sim.Seconds(2))
	snaps := e.Snapshots()
	for i, s := range snaps {
		if s == nil {
			t.Fatalf("rank %d has no snapshot", i)
		}
		for j, c := range s.Cuts {
			if f.SameGroup(i, c.Peer) {
				t.Errorf("rank %d snapshot includes intra-group peer %d", i, c.Peer)
			}
			if j > 0 && s.Cuts[j-1].Peer >= c.Peer {
				t.Errorf("rank %d cuts not sorted by peer: %v", i, s.Cuts)
			}
		}
	}
	// Symmetry: if q is in i's snapshot, i is in q's.
	for i, s := range snaps {
		for _, c := range s.Cuts {
			if !slices.ContainsFunc(snaps[c.Peer].Cuts, func(d ckpt.PeerCut) bool { return d.Peer == i }) {
				t.Errorf("snapshot asymmetry: %d lists %d but not vice versa", i, c.Peer)
			}
		}
	}
}

func TestPiggybackGarbageCollection(t *testing.T) {
	// After a checkpoint, continued traffic piggybacks RR values and
	// peers garbage-collect their logs.
	const n = 4
	k, w := buildWorld(1, n)
	wl := workload.NewSynthetic(n, 200)
	wl.CrossEach = 1 // constant cross traffic between the two groups
	f := group.Fixed(n, 2)
	e := NewEngine(w, DefaultConfig(f, wl.ImageBytes))
	e.ScheduleAt(sim.Seconds(2))
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Entries leave a log only through GC, so what a log collected is its
	// logged total less the entries it still holds.
	var collected int64
	for _, ls := range e.LogSets() {
		for d := 0; d < n; d++ {
			if l := ls.Get(d); l != nil {
				collected += l.Total
				for _, en := range l.Entries {
					collected -= en.Bytes
				}
			}
		}
	}
	if collected == 0 {
		t.Error("no log bytes were garbage-collected after the checkpoint")
	}
	// A rank that owes no more piggybacks holds no table: an emptied Go map
	// keeps its buckets, under GP1 one map per rank for the rest of the run.
	for i := range e.states {
		if owed := e.states[i].owedPB; owed != nil && len(owed) == 0 {
			t.Errorf("rank %d keeps an allocated, empty owedPB map", i)
		}
	}
}

func TestPeriodicCheckpoints(t *testing.T) {
	const n = 4
	k, w := buildWorld(1, n)
	wl := workload.NewSynthetic(n, 200) // ~10s execution
	e := NewEngine(w, DefaultConfig(group.Global(n), wl.ImageBytes))
	e.SchedulePeriodic(sim.Seconds(2), sim.Seconds(2), 0)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Epochs() < 2 {
		t.Errorf("epochs = %d, want ≥ 2", e.Epochs())
	}
	if len(e.EpochSpans()) != e.Epochs() {
		t.Errorf("spans = %d, epochs = %d", len(e.EpochSpans()), e.Epochs())
	}
	for _, s := range e.EpochSpans() {
		if s.To <= s.From {
			t.Errorf("bad span %+v", s)
		}
	}
}

func TestPeriodicMaxCount(t *testing.T) {
	const n = 4
	k, w := buildWorld(1, n)
	wl := workload.NewSynthetic(n, 400)
	e := NewEngine(w, DefaultConfig(group.Global(n), wl.ImageBytes))
	e.SchedulePeriodic(sim.Second, sim.Second, 3)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Epochs() != 3 {
		t.Errorf("epochs = %d, want 3", e.Epochs())
	}
}

func TestRestartNormNoResend(t *testing.T) {
	const n = 8
	e, _ := runSynthetic(t, 1, n, group.Global(n), sim.Seconds(2))
	out, err := SimulateRestart(RestartSpec{
		N: n, ClusterCfg: quietCluster(), Formation: group.Global(n),
		Snapshots: e.Snapshots(), Logs: e.LogSets(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ResendBytes != 0 || out.ResendOps != 0 {
		t.Errorf("NORM restart resent %d bytes / %d ops, want 0", out.ResendBytes, out.ResendOps)
	}
	if out.AggregateRestartTime() <= 0 {
		t.Error("zero aggregate restart time")
	}
}

func TestRestartGroupReplaysOwedBytes(t *testing.T) {
	const n = 8
	f := group.Fixed(n, 2)
	e, _ := runSynthetic(t, 3, n, f, sim.Seconds(2))
	snaps := e.Snapshots()
	// Expected resend: Σ over directed out-of-group pairs of
	// max(0, S_sender − R_receiver).
	var want int64
	for i, s := range snaps {
		for _, c := range s.Cuts {
			owe := c.Sent - snaps[c.Peer].RecvdFrom(i)
			if owe > 0 {
				want += owe
			}
		}
	}
	out, err := SimulateRestart(RestartSpec{
		N: n, ClusterCfg: quietCluster(), Formation: f,
		Snapshots: snaps, Logs: e.LogSets(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ResendBytes != want {
		t.Errorf("resent %d bytes, want %d", out.ResendBytes, want)
	}
}

func TestRestartGP1MoreResendThanGP(t *testing.T) {
	// Uses a jittered cluster and large continuous transfers so the
	// checkpoint cut always catches in-flight bytes: GP1's uncoordinated
	// cut owes resends on every ring edge, while a grouped cut owes them
	// only on inter-group edges (intra-group channels are drained).
	const n = 8
	run := func(f group.Formation) int64 {
		k := sim.NewKernel(5)
		c := cluster.New(k, n, cluster.Gideon()) // jitter + daemon noise on
		w := mpi.NewWorld(k, c, n)
		wl := workload.NewSynthetic(n, 60)
		wl.RingBytes = 2 << 20 // ~170 ms on the wire: always in flight
		wl.Flops = 10e6
		e := NewEngine(w, DefaultConfig(f, wl.ImageBytes))
		e.ScheduleAt(sim.Seconds(2))
		w.Launch(wl.Body)
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out, err := SimulateRestart(RestartSpec{
			N: n, ClusterCfg: quietCluster(), Formation: f,
			Snapshots: e.Snapshots(), Logs: e.LogSets(), Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.ResendBytes
	}
	gp1 := run(group.Singletons(n))
	gp := run(group.Fixed(n, 2))
	if gp1 <= gp {
		t.Errorf("GP1 resend (%d) should exceed GP resend (%d)", gp1, gp)
	}
}

func TestRestartMissingSnapshotFails(t *testing.T) {
	snaps := make([]*ckpt.Snapshot, 2)
	snaps[0] = &ckpt.Snapshot{}
	_, err := SimulateRestart(RestartSpec{
		N: 2, ClusterCfg: quietCluster(), Formation: group.Global(2),
		Snapshots: snaps,
	})
	if err == nil {
		t.Error("restart with missing snapshot did not fail")
	}
}

func TestVCLCheckpointCompletes(t *testing.T) {
	const n = 8
	k, w := buildWorld(1, n)
	wl := workload.NewSynthetic(n, 100)
	c := w.C
	rs := cluster.NewRemoteStore(c, 2, 12.5e6, 40e6)
	v := NewVCL(w, rs, wl.ImageBytes)
	v.ScheduleAt(sim.Seconds(2))
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Epochs() != 1 {
		t.Fatalf("epochs = %d", v.Epochs())
	}
	if len(v.Records()) != n {
		t.Fatalf("records = %d", len(v.Records()))
	}
	for _, r := range v.Records() {
		if r.Stages[ckpt.StageWrite] <= 0 {
			t.Errorf("rank %d: no write time", r.Rank)
		}
	}
	if v.Name() != "VCL" {
		t.Errorf("Name = %q", v.Name())
	}
}

func TestVCLRestart(t *testing.T) {
	const n = 4
	k, w := buildWorld(1, n)
	wl := workload.NewSynthetic(n, 100)
	rs := cluster.NewRemoteStore(w.C, 2, 12.5e6, 40e6)
	v := NewVCL(w, rs, wl.ImageBytes)
	v.ScheduleAt(sim.Seconds(2))
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	out, err := SimulateRestart(RestartSpec{
		N: n, ClusterCfg: quietCluster(), Formation: group.Global(n),
		Snapshots: v.Snapshots(), Seed: 2,
		RemoteServers: 2, ServerNIC: 12.5e6, ServerDisk: 40e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ResendBytes != 0 {
		t.Errorf("VCL restart resent %d bytes", out.ResendBytes)
	}
}

func TestDeterminismFullStack(t *testing.T) {
	run := func() (sim.Time, sim.Time) {
		e, w := runSynthetic(t, 42, 8, group.Fixed(8, 2), sim.Seconds(2))
		var maxFinish sim.Time
		for _, r := range w.Ranks {
			if r.FinishTime > maxFinish {
				maxFinish = r.FinishTime
			}
		}
		return maxFinish, ckpt.AggregateCheckpointTime(e.Records())
	}
	f1, c1 := run()
	f2, c2 := run()
	if f1 != f2 || c1 != c2 {
		t.Errorf("non-deterministic: finish %v/%v ckpt %v/%v", f1, f2, c1, c2)
	}
}

func TestEngineRejectsBadFormation(t *testing.T) {
	k, w := buildWorld(1, 4)
	_ = k
	defer func() {
		if recover() == nil {
			t.Error("mismatched formation did not panic")
		}
	}()
	NewEngine(w, DefaultConfig(group.Global(5), nil))
}
