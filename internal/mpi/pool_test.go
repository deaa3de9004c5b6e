package mpi

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestEnvelopePoolRecycles: after a Sendrecv consumes its reply, the next
// send must reuse the recycled envelope rather than allocating, and the
// reused envelope must carry only the new message's data.
func TestEnvelopePoolRecycles(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	w.Hooks = piggybackRound1{}
	var got *Msg
	w.Launch(func(r *Rank) {
		other := 1 - r.ID
		// Round 1: both envelopes end up back in the pool via Sendrecv.
		r.Sendrecv(other, 1, 1000, other, 1)
		// Round 2: Recv keeps ownership; rank 1 inspects the envelope.
		if r.ID == 0 {
			r.Send(1, 2, 77, "fresh")
		} else {
			got = r.Recv(0, 2)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().FreeLen == 0 {
		t.Error("free list empty after Sendrecv recycling")
	}
	if got == nil || got.Bytes != 77 || got.Payload != "fresh" || got.Tag != 2 {
		t.Fatalf("reused envelope carries stale data: %+v", got)
	}
	if got.HasPB || got.Val != 0 {
		t.Errorf("reused envelope kept a piggyback: %d (flag %v)", got.Val, got.HasPB)
	}
}

// piggybackRound1 piggybacks a volume on every round-1 message of
// TestEnvelopePoolRecycles, so a recycled envelope has one to lose.
type piggybackRound1 struct{}

func (piggybackRound1) BeforeSend(r *Rank, m *Msg) sim.Time {
	if m.Tag == 1 {
		m.Val, m.HasPB = 42, true
	}
	return 0
}

func (piggybackRound1) OnDeliver(*Rank, *Msg) {}

// TestFreeReturnsEnvelopeToPool: World.Free clears the envelope and makes
// it available to the next Send.
func TestFreeReturnsEnvelopeToPool(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	var first, second *Msg
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, 10, nil)
			r.Recv(1, 3) // wait for rank 1's ack before the second send
			r.Send(1, 2, 20, nil)
		} else {
			first = r.Recv(0, 1)
			r.W.Free(first)
			r.Send(0, 3, 1, nil) // ack
			second = r.Recv(0, 2)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if second == nil || second.Bytes != 20 {
		t.Fatalf("second message corrupt: %+v", second)
	}
}

// TestSparsePeerStateOnlyTouchedChannels: per-peer records must track
// exactly the peers traffic touched, ForEachPeer must enumerate the peers a
// rank sent to or consumed from, and PairFlows every channel either end has
// a record of, a drained but silent one included.
func TestSparsePeerStateOnlyTouchedChannels(t *testing.T) {
	const n = 8
	k, w := testWorld(t, 1, n)
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Send(3, 1, 500, nil)
		} else if r.ID == 3 {
			r.Recv(0, 1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Ranks[0].SentBytes(3); got != 500 {
		t.Errorf("SentBytes(3) = %d", got)
	}
	if got := w.Ranks[3].AppRecvdBytes(0); got != 500 {
		t.Errorf("AppRecvdBytes(0) = %d", got)
	}
	peers := map[int][2]int64{}
	w.Ranks[3].ForEachPeer(func(q int, sent, recvd int64) {
		peers[q] = [2]int64{sent, recvd}
	})
	if len(peers) != 1 {
		t.Fatalf("rank 3 peers = %v, want exactly {0}", peers)
	}
	if peers[0] != [2]int64{0, 500} {
		t.Errorf("peer 0 = %v, want {0, 500}", peers[0])
	}
	// Untouched ranks carry no per-peer state at all.
	if w.Ranks[5].chans != nil {
		t.Error("untouched rank allocated per-peer records")
	}
	if len(w.Ranks[0].chans) != 1 || len(w.Ranks[3].chans) != 1 {
		t.Errorf("records: rank 0 has %d, rank 3 has %d, want 1 each", len(w.Ranks[0].chans), len(w.Ranks[3].chans))
	}
	// A drain on a silent channel opens a record that is a flow but not a
	// peer.
	w.Ranks[6].RecvdCounter(7)
	w.Ranks[6].ForEachPeer(func(q int, _, _ int64) { t.Errorf("rank 6 visits peer %d", q) })
	want := []PairFlow{{Src: 0, Dst: 3, Sent: 500, Recvd: 500, Consumed: 500}, {Src: 7, Dst: 6}}
	if got := w.PairFlows(); !slices.Equal(got, want) {
		t.Errorf("PairFlows = %+v, want %+v", got, want)
	}
}

// TestSendPathSteadyStateAllocs asserts the headline property directly:
// once the pool is warm, a Sendrecv round trip performs zero heap
// allocations, bare and with the world's and the kernel's metrics attached
// (OBSERVABILITY.md, *The zero-alloc guarantee*).
func TestSendPathSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		metered bool
	}{{"bare", false}, {"metered", true}} {
		t.Run(tc.name, func(t *testing.T) {
			k, w := testWorld(t, 1, 2)
			col := metrics.New()
			if tc.metered {
				w.SetMetrics(NewMetrics(col))
				k.SetMetrics(sim.NewMetrics(col))
			}
			const warm, iters = 20, 200
			var allocs uint64
			w.Launch(func(r *Rank) {
				other := 1 - r.ID
				for i := 0; i < warm; i++ { // warm the pool, counters, heap capacity
					r.Sendrecv(other, 1, 4096, other, 1)
				}
				if r.ID == 0 {
					var ms1, ms2 runtime.MemStats
					runtime.ReadMemStats(&ms1)
					for i := 0; i < iters; i++ {
						r.Sendrecv(other, 1, 4096, other, 1)
					}
					runtime.ReadMemStats(&ms2)
					allocs = ms2.Mallocs - ms1.Mallocs
				} else {
					for i := 0; i < iters; i++ {
						r.Sendrecv(other, 1, 4096, other, 1)
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if tc.metered {
				if v, _ := col.Snapshot().Counter("mpi_sends_total"); v != 2*(warm+iters) {
					t.Fatalf("mpi_sends_total = %d, want %d: metrics not attached", v, 2*(warm+iters))
				}
			}
			// Allow a little slack for runtime-internal allocation (GC
			// assists, goroutine bookkeeping, the kernel's queue-depth
			// sample slice growing); the pre-pool path allocated ≥6 per
			// message.
			if perMsg := float64(allocs) / (2 * iters); perMsg > 1 {
				t.Errorf("steady-state send path allocates %.2f objects/message, want ≈0", perMsg)
			}
		})
	}
}

// TestPoolStatsAccounting: the Stats counters obey the documented
// identities on a healthy run — sends/deliveries/receives agree, and the
// free list holds exactly freed − reused envelopes.
func TestPoolStatsAccounting(t *testing.T) {
	k, w := testWorld(t, 1, 4)
	w.Launch(func(r *Rank) {
		next, prev := (r.ID+1)%4, (r.ID+3)%4
		for i := 0; i < 50; i++ {
			r.Sendrecv(next, i, 2048, prev, i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Sends != 200 || st.Delivered != 200 || st.Consumed != 200 {
		t.Errorf("sends/delivered/consumed = %d/%d/%d, want 200 each", st.Sends, st.Delivered, st.Consumed)
	}
	if st.DoubleFrees != 0 {
		t.Errorf("DoubleFrees = %d on a healthy run", st.DoubleFrees)
	}
	if st.FreeLen != st.PoolFreed-st.PoolReused {
		t.Errorf("free list %d != freed %d − reused %d", st.FreeLen, st.PoolFreed, st.PoolReused)
	}
	if app, _ := w.Queued(); app != 0 {
		t.Errorf("%d app messages still queued", app)
	}
}

// TestDoubleFreeDetected: freeing the same envelope twice must be counted
// (the invariant oracle turns the count into a failure) and must not grow
// the free list twice.
func TestDoubleFreeDetected(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, 64, nil)
		} else {
			m := r.Recv(0, 1)
			r.W.Free(m)
			r.W.Free(m)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.DoubleFrees != 1 {
		t.Errorf("DoubleFrees = %d, want 1", st.DoubleFrees)
	}
	if st.PoolFreed != 1 || st.FreeLen != 1 {
		t.Errorf("freed=%d freeLen=%d, want 1/1 (second Free must not push again)", st.PoolFreed, st.FreeLen)
	}
}

// TestPoolConcurrentWorlds runs many worlds at once — the shape of a
// parallel scenario sweep, where each worker owns one world — with heavy
// free-list churn in each. The per-world pool needs no locking because a
// world is confined to its cell; this test is the race detector's proof
// that the confinement actually holds (run via `go test -race ./...`).
func TestPoolConcurrentWorlds(t *testing.T) {
	const worlds = 8
	var wg sync.WaitGroup
	for wi := 0; wi < worlds; wi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			k, w := testWorld(t, seed, 4)
			w.Launch(func(r *Rank) {
				next, prev := (r.ID+1)%4, (r.ID+3)%4
				for i := 0; i < 100; i++ {
					// Explicit Recv + Free alongside Sendrecv's implicit
					// recycling, so both free paths churn concurrently
					// across worlds.
					r.Send(next, i, 1024, nil)
					m := r.Recv(prev, i)
					r.W.Free(m)
				}
			})
			if err := k.Run(); err != nil {
				t.Error(err)
				return
			}
			st := w.Stats()
			if st.DoubleFrees != 0 || st.FreeLen != st.PoolFreed-st.PoolReused {
				t.Errorf("world seed %d: corrupt pool accounting: %+v", seed, st)
			}
			if st.Sends != st.Consumed {
				t.Errorf("world seed %d: %d sends vs %d consumed", seed, st.Sends, st.Consumed)
			}
		}(int64(wi + 1))
	}
	wg.Wait()
}
