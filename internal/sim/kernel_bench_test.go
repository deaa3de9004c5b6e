package sim

// Benchmarks for the kernel's event-queue hot path. Every simulated
// operation — Hold, message delivery, resource grants — funnels through
// push/pop on the event heap, so scenario sweeps at thousands of ranks are
// bounded by this path. BenchmarkKernelEventChurn measures the heap alone
// (kernel-context callbacks, no process switches); the other benchmarks
// add process wakeups and mailbox traffic in the mix real workloads produce.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// BenchmarkKernelEventChurn keeps a deep heap of self-rescheduling callbacks
// and measures pure schedule/dispatch throughput.
func BenchmarkKernelEventChurn(b *testing.B) {
	const outstanding = 4096
	k := NewKernel(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			k.After(Time(k.Rand().Int63n(int64(Millisecond))), tick)
		}
	}
	for i := 0; i < outstanding && remaining > 0; i++ {
		remaining--
		k.After(Time(k.Rand().Int63n(int64(Millisecond))), tick)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.Events())/float64(b.N), "events/op")
}

// boxedEventHeap is the event queue this package shipped before the
// concrete heap: *event values behind container/heap's interface, one
// allocation per event and a dynamic dispatch per comparison. It is kept
// here, test-only, as the baseline BenchmarkEventHeap measures the rework
// against.
type boxedEventHeap []*event

func (h boxedEventHeap) Len() int { return len(h) }
func (h boxedEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *boxedEventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *boxedEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// BenchmarkEventHeap runs the identical churn — a deep queue where every
// pop pushes a replacement at a random future time — through the concrete
// heap the kernel uses and the boxed container/heap baseline it replaced.
// The concrete sub-benchmark must come out faster (and allocation-free).
func BenchmarkEventHeap(b *testing.B) {
	const depth = 4096
	churn := func(b *testing.B, push func(at Time, seq uint64), pop func() Time) {
		rng := rand.New(rand.NewSource(1))
		var seq uint64
		for i := 0; i < depth; i++ {
			seq++
			push(Time(rng.Int63n(int64(Second))), seq)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := pop()
			seq++
			push(at+Time(rng.Int63n(int64(Millisecond))), seq)
		}
	}
	b.Run("concrete", func(b *testing.B) {
		var h eventHeap
		churn(b,
			func(at Time, seq uint64) { h.push(event{at: at, seq: seq}) },
			func() Time { return h.pop().at })
	})
	b.Run("boxed", func(b *testing.B) {
		var h boxedEventHeap
		churn(b,
			func(at Time, seq uint64) { heap.Push(&h, &event{at: at, seq: seq}) },
			func() Time { return heap.Pop(&h).(*event).at })
	})
}

// BenchmarkKernelHold measures the Hold path: N processes sleeping in
// staggered loops, which is the dominant event pattern of compute phases.
func BenchmarkKernelHold(b *testing.B) {
	const procs = 512
	k := NewKernel(1)
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Hold(Time(1 + (i+j)%1000))
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelMailboxPingPong measures wakeup-token traffic: pairs of
// processes exchanging messages through mailboxes, the pattern of
// message-passing workloads.
func BenchmarkKernelMailboxPingPong(b *testing.B) {
	const pairs = 64
	k := NewKernel(1)
	rounds := b.N/(2*pairs) + 1
	for i := 0; i < pairs; i++ {
		a := NewMailbox(k, "a")
		c := NewMailbox(k, "c")
		k.Spawn("ping", func(p *Proc) {
			for j := 0; j < rounds; j++ {
				a.Put(j)
				c.Recv(p, nil)
			}
		})
		k.Spawn("pong", func(p *Proc) {
			for j := 0; j < rounds; j++ {
				a.Recv(p, nil)
				p.Hold(Time(j%64 + 1))
				c.Put(j)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
