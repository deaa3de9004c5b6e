package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// testWorld builds an n-rank world on a quiet (noise-free) cluster.
func testWorld(t *testing.T, seed int64, n int) (*sim.Kernel, *World) {
	t.Helper()
	k := sim.NewKernel(seed)
	cfg := cluster.Gideon()
	cfg.JitterFrac = 0
	cfg.DaemonEvery = 0
	c := cluster.New(k, n, cfg)
	return k, NewWorld(k, c, n)
}

func TestSendRecvBasic(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	var got *Msg
	w.Launch(func(r *Rank) {
		switch r.ID {
		case 0:
			r.Send(1, 5, 1000, "payload")
		case 1:
			got = r.Recv(0, 5)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Payload != "payload" || got.Src != 0 || got.Bytes != 1000 {
		t.Fatalf("got %+v", got)
	}
	if got.ArriveTime <= got.SendTime {
		t.Errorf("arrive %v ≤ send %v", got.ArriveTime, got.SendTime)
	}
}

func TestRecvTagAndSourceMatching(t *testing.T) {
	k, w := testWorld(t, 1, 3)
	var order []int
	w.Launch(func(r *Rank) {
		switch r.ID {
		case 0:
			r.Send(2, 7, 100, nil)
		case 1:
			r.Proc.Hold(sim.Millisecond)
			r.Send(2, 9, 100, nil)
		case 2:
			// Wait for tag 9 first even though tag 7 arrives first.
			m1 := r.Recv(AnySource, 9)
			m2 := r.Recv(0, 7)
			order = append(order, m1.Src, m2.Src)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Errorf("order = %v, want [1 0]", order)
	}
}

func TestTransportCounters(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, 500, nil)
			r.Send(1, 1, 700, nil)
		} else {
			r.Recv(0, 1)
			r.Recv(0, 1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Ranks[0].SentBytes(1); got != 1200 {
		t.Errorf("SentBytes = %d, want 1200", got)
	}
	if got := w.Ranks[1].RecvdBytes(0); got != 1200 {
		t.Errorf("RecvdBytes = %d, want 1200", got)
	}
}

func TestSendrecvNoDeadlock(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	w.Launch(func(r *Rank) {
		other := 1 - r.ID
		// Classic head-to-head exchange.
		r.Sendrecv(other, 3, 10_000, other, 3)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Sendrecv deadlocked: %v", err)
	}
}

func TestGateFreezesSender(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	w.Ranks[0].Gate.Close()
	var sentAt sim.Time
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, 100, nil)
			sentAt = r.Now()
		} else {
			r.Recv(0, 1)
		}
	})
	k.At(sim.Seconds(5), func() { w.Ranks[0].Gate.Open() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt < sim.Seconds(5) {
		t.Errorf("frozen rank sent at %v, want ≥5s", sentAt)
	}
}

func TestSendGateFreezesOnlySends(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	w.Ranks[0].SendGate.Close()
	var recvAt, sendAt sim.Time
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			// Receive is not blocked by the send gate.
			r.Recv(1, 2)
			recvAt = r.Now()
			r.Send(1, 3, 100, nil)
			sendAt = r.Now()
		} else {
			r.Send(0, 2, 100, nil)
			r.Recv(0, 3)
		}
	})
	k.At(sim.Seconds(5), func() { w.Ranks[0].SendGate.Open() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt >= sim.Seconds(5) {
		t.Errorf("receive blocked by send gate (recvAt=%v)", recvAt)
	}
	if sendAt < sim.Seconds(5) {
		t.Errorf("send not blocked by send gate (sendAt=%v)", sendAt)
	}
}

func TestGateParksReceiveCompletion(t *testing.T) {
	// A message that arrives while the rank is frozen is delivered at the
	// transport (counter advances) but the application parks at the gate.
	k, w := testWorld(t, 1, 2)
	var consumedAt sim.Time
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Recv(1, 1)
			consumedAt = r.Now()
		} else {
			r.Proc.Hold(sim.Seconds(2))
			r.Send(0, 1, 1000, nil)
		}
	})
	k.At(sim.Second, func() { w.Ranks[0].Gate.Close() })
	k.At(sim.Seconds(10), func() {
		if got := w.Ranks[0].RecvdBytes(1); got != 1000 {
			t.Errorf("transport bytes at t=10s = %d, want 1000 (delivered while frozen)", got)
		}
		w.Ranks[0].Gate.Open()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if consumedAt < sim.Seconds(10) {
		t.Errorf("application consumed at %v, want ≥10s", consumedAt)
	}
}

func TestComputeSlicesRespectGate(t *testing.T) {
	k, w := testWorld(t, 1, 1)
	w.SliceSeconds = 0.1
	var end sim.Time
	w.Launch(func(r *Rank) {
		r.Compute(1e9) // 1s of work in 0.1s slices
		end = r.Now()
	})
	k.At(sim.Seconds(0.35), func() { w.Ranks[0].Gate.Close() })
	k.At(sim.Seconds(5), func() { w.Ranks[0].Gate.Open() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// ~0.4s of work done before freeze bites, then 4.6s frozen, then the
	// remaining ~0.6s: end ≈ 5.6s. Must be well beyond 5s and ≈ 5+1s.
	if end < sim.Seconds(5.5) || end > sim.Seconds(5.7) {
		t.Errorf("compute end = %v, want ≈5.6s", end)
	}
}

func TestCtrlPlaneBypassesGateAndCounters(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	w.Ranks[0].Gate.Close() // frozen app must not block ctrl traffic
	var got *Msg
	done := make(chan struct{})
	_ = done
	k.Spawn(sim.L("daemon0"), func(p *sim.Proc) {
		w.Ranks[0].CtrlSend(p, 1, TagCtrlBase+1, 64, 4096, "bookmark")
	})
	k.Spawn(sim.L("daemon1"), func(p *sim.Proc) {
		got = w.Ranks[1].CtrlRecv(p, 0, TagCtrlBase+1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Payload != "bookmark" || got.Val != 4096 {
		t.Fatalf("ctrl message not received: %+v", got)
	}
	if w.Ranks[1].RecvdBytes(0) != 0 {
		t.Error("ctrl traffic counted in application transport counters")
	}
	if w.Ranks[0].SentBytes(1) != 0 {
		t.Error("ctrl traffic counted in application sent counters")
	}
}

type countingHooks struct {
	sends, delivers int
	extra           sim.Time
}

func (h *countingHooks) BeforeSend(r *Rank, m *Msg) sim.Time { h.sends++; return h.extra }
func (h *countingHooks) OnDeliver(d *Rank, m *Msg)           { h.delivers++ }

func TestHooksInvoked(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	h := &countingHooks{extra: sim.Second}
	w.Hooks = h
	var sendDone sim.Time
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, 100, nil)
			sendDone = r.Now()
		} else {
			r.Recv(0, 1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if h.sends != 1 || h.delivers != 1 {
		t.Errorf("hooks: sends=%d delivers=%d, want 1/1", h.sends, h.delivers)
	}
	if sendDone < sim.Second {
		t.Errorf("BeforeSend extra delay not applied (done at %v)", sendDone)
	}
}

func TestHooksNotInvokedForCtrl(t *testing.T) {
	k, w := testWorld(t, 1, 2)
	h := &countingHooks{}
	w.Hooks = h
	k.Spawn(sim.L("d"), func(p *sim.Proc) {
		w.Ranks[0].CtrlSend(p, 1, TagCtrlBase, 8, 0, nil)
	})
	k.Spawn(sim.L("d1"), func(p *sim.Proc) {
		w.Ranks[1].CtrlRecv(p, 0, TagCtrlBase)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if h.sends != 0 || h.delivers != 0 {
		t.Errorf("hooks ran for ctrl traffic: %+v", h)
	}
}

func TestLaunchRecordsFinishTimes(t *testing.T) {
	k, w := testWorld(t, 1, 3)
	w.Launch(func(r *Rank) {
		r.Proc.Hold(sim.Time(r.ID) * sim.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range w.Ranks {
		if !r.Finished {
			t.Fatalf("rank %d not finished", i)
		}
		if r.FinishTime != sim.Time(i)*sim.Second {
			t.Errorf("rank %d finish = %v", i, r.FinishTime)
		}
	}
}

func TestWorldTooManyRanksPanics(t *testing.T) {
	k := sim.NewKernel(1)
	c := cluster.New(k, 2, cluster.Gideon())
	defer func() {
		if recover() == nil {
			t.Error("no panic for n > nodes")
		}
	}()
	NewWorld(k, c, 3)
}
