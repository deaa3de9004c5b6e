package sim

import (
	"errors"
	"slices"
	"testing"
)

func TestHoldAdvancesTime(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.Spawn(L("a"), func(p *Proc) {
		p.Hold(Seconds(2.5))
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Seconds(2.5) {
		t.Errorf("time after Hold(2.5s) = %v, want 2.5s", at)
	}
}

func TestHoldNegativeIsZero(t *testing.T) {
	k := NewKernel(1)
	k.Spawn(L("a"), func(p *Proc) {
		p.Hold(-Second)
		if p.Now() != 0 {
			t.Errorf("negative hold advanced time to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHoldUntilPastIsNoop(t *testing.T) {
	k := NewKernel(1)
	k.Spawn(L("a"), func(p *Proc) {
		p.Hold(Second)
		p.HoldUntil(Seconds(0.5))
		if p.Now() != Second {
			t.Errorf("HoldUntil(past) moved time to %v", p.Now())
		}
		p.HoldUntil(Seconds(3))
		if p.Now() != Seconds(3) {
			t.Errorf("HoldUntil(3s) ended at %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Second, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events at same instant ran out of order: %v", order)
		}
	}
}

func TestInterleavingIsByTime(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn(L("slow"), func(p *Proc) {
		p.Hold(Seconds(3))
		order = append(order, "slow")
	})
	k.Spawn(L("fast"), func(p *Proc) {
		p.Hold(Seconds(1))
		order = append(order, "fast")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Errorf("order = %v, want [fast slow]", order)
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel(1)
	var childRan bool
	k.Spawn(L("parent"), func(p *Proc) {
		p.Hold(Second)
		k.Spawn(L("child"), func(c *Proc) {
			if c.Now() != Second {
				t.Errorf("child started at %v, want 1s", c.Now())
			}
			childRan = true
		})
		p.Hold(Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child never ran")
	}
}

func TestAtCallbackRunsAtScheduledTime(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.At(Seconds(7), func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Seconds(7) {
		t.Errorf("callback ran at %v, want 7s", at)
	}
}

func TestAfterIsRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.Spawn(L("a"), func(p *Proc) {
		p.Hold(Seconds(2))
		k.GlobalAfter(Seconds(3), func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Seconds(5) {
		t.Errorf("GlobalAfter callback at %v, want 5s", at)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("never"))
	k.Spawn(L("stuck"), func(p *Proc) {
		mb.RecvKeyed(p, AnyKey, 0)
	})
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Errorf("blocked = %v, want 1 entry", de.Blocked)
	}
}

// TestDeadlockReportText pins the report's text: each blocked process by
// its label and state, a primitive's label formatted only here. The same
// scene with the names spelled as strings produced these exact lines before
// processes and primitives carried labels. A process using a resource
// always has its completion scheduled, so only the check at 1s, mid-run,
// can catch one.
func TestDeadlockReportText(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("rank", 0))
	g := NewGate(L("gate", 1))
	g.Close()
	disk := NewResource(L("disk", 2), 1)
	rx := NewCounter(L("rx", 5, 3))
	idle := NewMailbox(L("ctrl", 0))
	k.Spawn(L("rank", 0), func(p *Proc) { mb.RecvKeyed(p, AnyKey, 0) })
	k.Spawn(L("rank", 1), func(p *Proc) { g.Pass(p) })
	k.Spawn(L("rank", 2), func(p *Proc) { disk.Use(p, 3) })
	k.Spawn(L("rank", 5), func(p *Proc) { rx.AwaitAtLeast(p, 1) })
	k.SpawnDaemonIn(0, L("ckptd", 0), func(p *Proc) { idle.RecvKeyed(p, AnyKey, 0) })
	var mid error
	k.At(Second, func() { mid = k.deadlockCheck() })
	err := k.Run()

	const wantMid = "sim: deadlock at 1s: 4 blocked process(es): [rank0: recv rank0 rank1: gate gate1 rank2: resource disk2 rank5: counter rx5<-3]"
	if mid == nil || mid.Error() != wantMid {
		t.Errorf("report at 1s = %v\nwant %s", mid, wantMid)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	const wantEnd = "sim: deadlock at 3s: 3 blocked process(es): [rank0: recv rank0 rank1: gate gate1 rank5: counter rx5<-3]"
	if err.Error() != wantEnd {
		t.Errorf("Run = %v\nwant %s", err, wantEnd)
	}
	if want := []string{"rank0: recv rank0", "rank1: gate gate1", "rank5: counter rx5<-3"}; !slices.Equal(de.Blocked, want) {
		t.Errorf("Blocked = %q, want %q", de.Blocked, want)
	}
}

func TestNoDeadlockWhenAllFinish(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	k.Spawn(L("recv"), func(p *Proc) { mb.RecvKeyed(p, AnyKey, 0) })
	k.Spawn(L("send"), func(p *Proc) {
		p.Hold(Second)
		mb.PutKeyed("hello", 0, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
}

func TestHorizonStopsRun(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.At(Seconds(100), func() { ran = true })
	k.SetHorizon(Seconds(10))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("event beyond horizon ran")
	}
	if k.Now() > Seconds(10) {
		t.Errorf("time advanced to %v beyond horizon", k.Now())
	}
}

func TestStaleWakeupDropped(t *testing.T) {
	// A process scheduled to wake at t=2 via Hold but woken earlier via a
	// mailbox put must not be woken twice.
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	wakeups := 0
	k.Spawn(L("sleeper"), func(p *Proc) {
		// Block on the mailbox; the put arrives at t=1.
		mb.RecvKeyed(p, AnyKey, 0)
		wakeups++
		// Then hold until t=5; nothing else should wake us.
		p.Hold(Seconds(4))
		wakeups++
		if p.Now() != Seconds(5) {
			t.Errorf("sleeper resumed at %v, want 5s", p.Now())
		}
	})
	k.Spawn(L("waker"), func(p *Proc) {
		p.Hold(Second)
		mb.PutKeyed(1, 0, 0)
		mb.PutKeyed(2, 0, 0) // second put queues; must not wake the Hold early
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeups != 2 {
		t.Errorf("wakeups = %d, want 2", wakeups)
	}
	if mb.Len() != 1 {
		t.Errorf("mailbox len = %d, want 1 leftover", mb.Len())
	}
}

func TestRunIsNotReentrant(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("nested Run did not panic")
		}
	}()
	k.At(0, func() { _ = k.Run() })
	_ = k.Run()
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []Time {
		k := NewKernel(seed)
		var times []Time
		mb := NewMailbox(L("mb"))
		for i := 0; i < 5; i++ {
			k.Spawn(L("worker"), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Hold(Time(k.Rand().Int63n(int64(Second))))
					mb.PutKeyed(j, 0, 0)
					times = append(times, p.Now())
				}
			})
		}
		k.Spawn(L("drain"), func(p *Proc) {
			for i := 0; i < 100; i++ {
				mb.RecvKeyed(p, AnyKey, 0)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical timing (suspicious)")
	}
}

func TestManyProcs(t *testing.T) {
	k := NewKernel(1)
	const n = 500
	var finished int
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(L("p"), func(p *Proc) {
			p.Hold(Time(i) * Millisecond)
			finished++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Errorf("finished = %d, want %d", finished, n)
	}
	if k.Now() != Time(n-1)*Millisecond {
		t.Errorf("final time = %v", k.Now())
	}
}

func TestProcAccessors(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn(L("named"), func(p *Proc) {})
	if p.Name() != "named" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.pt.k != k {
		t.Error("Kernel accessor mismatch")
	}
	if p.done {
		t.Error("Done before Run")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.done {
		t.Error("not Done after Run")
	}
}

func TestTimeString(t *testing.T) {
	if s := Seconds(1.5).String(); s != "1.5s" {
		t.Errorf("Seconds(1.5).String() = %q", s)
	}
	if got := Seconds(2).Seconds(); got != 2 {
		t.Errorf("round trip = %v", got)
	}
}
