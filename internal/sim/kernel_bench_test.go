package sim

// Benchmarks for the kernel's event-queue hot path. Every simulated
// operation — Hold, message delivery, resource grants — funnels through
// push/pop on the event heap, so scenario sweeps at thousands of ranks are
// bounded by this path. BenchmarkKernelEventChurn measures the heap alone
// (kernel-context callbacks, no process switches); the other benchmarks
// add process wakeups and mailbox traffic in the mix real workloads produce.
// BenchmarkPartitionedRounds measures the partitioned kernel's rounds.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metrics"
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
			k.At(k.Now()+Time(k.Rand().Int63n(int64(Millisecond))), tick)
		}
	}
	for i := 0; i < outstanding && remaining > 0; i++ {
		remaining--
		k.At(k.Now()+Time(k.Rand().Int63n(int64(Millisecond))), tick)
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
				a.PutKeyed(j, 0, 0)
				c.RecvKeyed(p, AnyKey, 0)
			}
		})
		k.Spawn("pong", func(p *Proc) {
			for j := 0; j < rounds; j++ {
				a.RecvKeyed(p, AnyKey, 0)
				p.Hold(Time(j%64 + 1))
				c.PutKeyed(j, 0, 0)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPartitionedRounds measures a partitioned kernel's rounds: the
// window bound, the windows on the worker pool, the handoff between its
// members and the cross-partition merge. The model is partition_test.go's
// token ring widened to 64 partitions, with eight tokens spread evenly
// over it. A receiver makes 32 short holds before it forwards its token
// one partition on, so a round runs about 30 events in each of about 8
// partitions: few runnable partitions out of 64, each with microseconds
// of work, the shape of the paper-scale GP1 cell's rounds. One op is one
// hop; ns/round is the run's wall time over its rounds. The kernel's
// metrics are attached, as on a traced run, and count the rounds.
func BenchmarkPartitionedRounds(b *testing.B) {
	const (
		parts     = 64
		tokens    = 8
		holds     = 32
		lookahead = 10 * Microsecond
	)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			k := NewKernel(1)
			col := metrics.New()
			k.SetMetrics(NewMetrics(col))
			k.SetPartitions(parts, lookahead)
			k.SetRunWorkers(workers)
			hops := b.N/parts + 1 // tokens each player receives
			var mbs [parts]*Mailbox
			var deliver [parts]func(any)
			for i := range mbs {
				mb := NewMailbox(k, "ring")
				mbs[i], deliver[i] = mb, func(v any) { mb.PutKeyed(v, 0, 0) }
			}
			for i := 0; i < parts; i++ {
				next := (i + 1) % parts
				if i%(parts/tokens) == 0 {
					k.PartAt1(i, 0, deliver[i], nil)
				}
				k.SpawnIn(i, "player", func(p *Proc) {
					rng := k.PartRand(i)
					for n := 0; n < hops; n++ {
						mbs[i].RecvKeyed(p, AnyKey, 0)
						for h := 0; h < holds; h++ {
							p.Hold(Time(rng.Int63n(int64(lookahead / (2 * holds)))))
						}
						k.CrossAt1(i, next, p.Now()+lookahead, deliver[next], nil)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			k.Shutdown()
			n, _ := col.Snapshot().Counter("sim_rounds_total")
			rounds := float64(n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rounds, "ns/round")
			b.ReportMetric(float64(k.Events())/rounds, "events/round")
		})
	}
}
