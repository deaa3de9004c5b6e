package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// commWorld builds a quiet world with the streaming matrix attached.
func commWorld(n int) (*sim.Kernel, *mpi.World, *trace.CommMatrix) {
	k := sim.NewKernel(1)
	cfg := cluster.Gideon()
	cfg.JitterFrac = 0
	cfg.DaemonEvery = 0
	c := cluster.New(k, n, cfg)
	w := mpi.NewWorld(k, c, n)
	m := trace.NewCommMatrix()
	w.Tracer = m
	return k, w, m
}

// TestCommMatrixUnderEngine checks that the streaming tracer threads through
// a checkpointed run: it sees exactly the application traffic (pooled
// envelopes included), never the engine's control plane, and its totals
// reconcile with the ranks' transport counters.
func TestCommMatrixUnderEngine(t *testing.T) {
	const n = 8
	wl := workload.NewSynthetic(n, 40)
	k, w, m := commWorld(n)
	e := NewEngine(w, DefaultConfig(group.Fixed(n, 2), wl.ImageBytes))
	e.ScheduleAt(sim.Second)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", e.Epochs())
	}
	var sent int64
	for _, r := range w.Ranks {
		for q := 0; q < n; q++ {
			sent += r.SentBytes(q)
		}
	}
	if m.TotalBytes() != sent {
		t.Errorf("matrix bytes = %d, transport counters say %d (ctrl traffic must be excluded)",
			m.TotalBytes(), sent)
	}
	pairs := m.Pairs()
	if m.Sends() == 0 || len(pairs) == 0 {
		t.Fatalf("matrix empty: %d sends, %d pairs", m.Sends(), len(pairs))
	}
	// The synthetic ring must dominate: every neighbour pair present.
	ringBytes := map[[2]int]int64{}
	for _, p := range pairs {
		ringBytes[[2]int{p.A, p.B}] = p.Bytes
	}
	for i := 0; i < n; i++ {
		a, b := i, (i+1)%n
		if a > b {
			a, b = b, a
		}
		if ringBytes[[2]int{a, b}] == 0 {
			t.Errorf("ring pair (%d,%d) missing from matrix", i, (i+1)%n)
		}
	}
}

// TestCommMatrixUnderVCL is the same guarantee under the Chandy–Lamport
// baseline, whose marker storm is all control-plane traffic.
func TestCommMatrixUnderVCL(t *testing.T) {
	const n = 6
	wl := workload.NewSynthetic(n, 40)
	k, w, m := commWorld(n)
	v := NewVCL(w, cluster.LocalDisk{}, wl.ImageBytes)
	v.ScheduleAt(sim.Second)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", v.Epochs())
	}
	var sent int64
	for _, r := range w.Ranks {
		for q := 0; q < n; q++ {
			sent += r.SentBytes(q)
		}
	}
	if m.TotalBytes() != sent {
		t.Errorf("matrix bytes = %d, transport counters say %d (markers must be excluded)",
			m.TotalBytes(), sent)
	}
}
