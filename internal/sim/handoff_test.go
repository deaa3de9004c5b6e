package sim

import "testing"

// TestAt1RunsPreBoundCallback checks the allocation-free callback form,
// PartAt1: ordering with At events at the same instant is still FIFO by
// schedule order, and the argument arrives intact.
func TestAt1RunsPreBoundCallback(t *testing.T) {
	k := NewKernel(1)
	var order []string
	handler := func(v any) { order = append(order, v.(string)) }
	k.At(Second, func() { order = append(order, "fn0") })
	k.PartAt1(0, Second, handler, "a")
	k.At(Second, func() { order = append(order, "fn1") })
	k.PartAt1(0, Second, handler, "b")
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"fn0", "a", "fn1", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSelfWakeupStaysOnGoroutine exercises the self-wake fast path: a lone
// process holding repeatedly finds its own wakeup next in its dispatch loop
// and keeps running with no switch, and events processed must match the
// schedule exactly.
func TestSelfWakeupStaysOnGoroutine(t *testing.T) {
	k := NewKernel(1)
	const holds = 1000
	k.Spawn(L("solo"), func(p *Proc) {
		for i := 0; i < holds; i++ {
			p.Hold(Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != holds*Millisecond {
		t.Errorf("final time = %v, want %v", k.Now(), holds*Millisecond)
	}
	// Spawn wake + one wake per Hold.
	if k.Events() != holds+1 {
		t.Errorf("events = %d, want %d", k.Events(), holds+1)
	}
}

// TestBatonChainsThroughFinishingProcs: when a process finishes, the home
// loop must carry the event loop on to the next runnable process, including
// across kernel callbacks scheduled between their wakes.
func TestBatonChainsThroughFinishingProcs(t *testing.T) {
	k := NewKernel(1)
	const n = 100
	var finished int
	var cbs int
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(L("p"), func(p *Proc) {
			p.Hold(Time(i) * Microsecond)
			finished++
		})
		k.At(Time(i)*Microsecond, func() { cbs++ })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n || cbs != n {
		t.Errorf("finished=%d cbs=%d, want %d/%d", finished, cbs, n, n)
	}
}

// TestKeyedRecvMatchesSourceAndTag covers the keyed mailbox fast path: exact
// source matching, AnyKey wildcard, FIFO among queued matches, and keyed
// waiters woken by keyed puts.
func TestKeyedRecvMatchesSourceAndTag(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	var got []int
	k.Spawn(L("recv"), func(p *Proc) {
		// Exact source: must skip the queued (src=1) message.
		got = append(got, mb.RecvKeyed(p, 2, 7).(int))
		// Wildcard source: takes the oldest queued tag-7 message.
		got = append(got, mb.RecvKeyed(p, AnyKey, 7).(int))
		// Block until the late keyed put arrives.
		got = append(got, mb.RecvKeyed(p, 3, 9).(int))
	})
	k.At(Second, func() {
		mb.PutKeyed(100, 1, 7)
		mb.PutKeyed(200, 2, 7)
	})
	k.At(2*Second, func() { mb.PutKeyed(300, 3, 9) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{200, 100, 300}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("got %v, want %v", got, want)
	}
	if mb.Len() != 0 {
		t.Errorf("mailbox len = %d, want 0", mb.Len())
	}
}

// TestDeterministicEventCountAcrossRuns: the scheduler refactor must not
// change what counts as an event — two identical runs agree exactly, and
// the Events diagnostic equals heap pops (stale wakeups included).
func TestDeterministicEventCountAcrossRuns(t *testing.T) {
	run := func() uint64 {
		k := NewKernel(5)
		mb := NewMailbox(L("mb"))
		for i := 0; i < 8; i++ {
			k.Spawn(L("w"), func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Hold(Time(k.Rand().Int63n(int64(Millisecond))))
					mb.PutKeyed(j, 0, 0)
				}
			})
		}
		k.Spawn(L("drain"), func(p *Proc) {
			for i := 0; i < 400; i++ {
				mb.RecvKeyed(p, AnyKey, 0)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Events()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("event counts diverge: %d vs %d", a, b)
	}
}
