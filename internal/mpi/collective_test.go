package mpi

import (
	"testing"

	"repro/internal/sim"
)

func ranksUpTo(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

func TestBcastDeliversFromEveryRoot(t *testing.T) {
	const n = 6
	for root := 0; root < n; root++ {
		root := root
		k, w := testWorld(t, 1, n)
		group := ranksUpTo(n)
		done := 0
		w.Launch(func(r *Rank) {
			r.Bcast(root, group, 1, 10_000)
			done++
		})
		if err := k.Run(); err != nil {
			t.Fatalf("root=%d: %v", root, err)
		}
		if done != n {
			t.Errorf("root=%d: done=%d", root, done)
		}
	}
}

func TestBcastMessageCountIsNMinusOne(t *testing.T) {
	const n = 8
	k, w := testWorld(t, 1, n)
	tr := &countTracer{}
	w.Tracer = tr
	w.Launch(func(r *Rank) { r.Bcast(0, ranksUpTo(n), 1, 1000) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.sends != n-1 {
		t.Errorf("binomial bcast sent %d messages, want %d", tr.sends, n-1)
	}
}

func TestReduceToEveryRoot(t *testing.T) {
	const n = 5
	for root := 0; root < n; root++ {
		root := root
		k, w := testWorld(t, 1, n)
		done := 0
		w.Launch(func(r *Rank) {
			r.Reduce(root, ranksUpTo(n), 2, 4096)
			done++
		})
		if err := k.Run(); err != nil {
			t.Fatalf("root=%d: %v", root, err)
		}
		if done != n {
			t.Errorf("root=%d: done=%d", root, done)
		}
	}
}

func TestReduceMessageCountIsNMinusOne(t *testing.T) {
	const n = 8
	k, w := testWorld(t, 1, n)
	tr := &countTracer{}
	w.Tracer = tr
	w.Launch(func(r *Rank) { r.Reduce(0, ranksUpTo(n), 2, 1000) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.sends != n-1 {
		t.Errorf("binomial reduce sent %d messages, want %d", tr.sends, n-1)
	}
}

func TestAllreduceCompletes(t *testing.T) {
	for _, n := range []int{2, 3, 8, 9} {
		k, w := testWorld(t, 1, n)
		done := 0
		w.Launch(func(r *Rank) {
			r.Allreduce(ranksUpTo(n), 4, 800)
			done++
		})
		if err := k.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if done != n {
			t.Errorf("n=%d: done=%d", n, done)
		}
	}
}

func TestRingBcastCompletes(t *testing.T) {
	const n = 6
	k, w := testWorld(t, 1, n)
	tr := &countTracer{}
	w.Tracer = tr
	w.Launch(func(r *Rank) { r.RingBcastPipelined(2, ranksUpTo(n), 3, 50_000, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.sends != n-1 {
		t.Errorf("ring bcast sent %d messages, want %d", tr.sends, n-1)
	}
}

func TestCollectiveOnSubgroup(t *testing.T) {
	// Ranks {1,3,5} allreduce among themselves while {0,2,4} exchange
	// point-to-point traffic with distinct tags. No cross-matching.
	k, w := testWorld(t, 1, 6)
	sub := []int{1, 3, 5}
	w.Launch(func(r *Rank) {
		if r.ID%2 == 1 {
			r.Allreduce(sub, 9, 8)
		} else {
			next := (r.ID + 2) % 6
			prev := (r.ID + 4) % 6
			r.Send(next, 1, 100, nil)
			r.Recv(prev, 1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveSingletonGroupIsNoop(t *testing.T) {
	k, w := testWorld(t, 1, 1)
	w.Launch(func(r *Rank) {
		r.Bcast(0, []int{0}, 2, 100)
		r.Reduce(0, []int{0}, 3, 100)
		r.Allreduce([]int{0}, 4, 100)
		r.RingBcastPipelined(0, []int{0}, 5, 100, 4)
		if r.Now() != 0 {
			t.Errorf("singleton collectives advanced time to %v", r.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

type countTracer struct{ sends, delivers int }

func (c *countTracer) Send(t sim.Time, src, dst, tag int, bytes int64)    { c.sends++ }
func (c *countTracer) Deliver(t sim.Time, src, dst, tag int, bytes int64) { c.delivers++ }
