package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// A process holds a coroutine only while its body runs: it gets one at its
// first resume, and a body that returns with a wait armed (RecvFunc,
// WakeAt) leaves it dormant, to run again from the top at its next wakeup.
// These tests pin that lifecycle, and that waiting without a stack changes
// no event: make parallel-race runs them twenty times under the race
// detector.

// twinRun runs one receiver through four messages beside same-instant
// bystanders, and returns the order in which every handler ran, the
// kernel's event count and its final time. The receiver takes each message
// and then naps: parked, it blocks in RecvKeyed and Hold, keeping its
// coroutine throughout; dormant, it arms RecvFunc, whose callback takes the
// message and wakes it with WakeAt, and its body returns. Message 0 is
// queued before the receiver first runs, messages 1 and 2 are put while it
// waits, and message 3 is put during its third nap, so that the re-arm
// after it finds the message queued. Every nap but the third lasts no time
// at all, so both a queued message and a later put are followed by a
// wakeup at the very instant the message was taken.
func twinRun(t *testing.T, parked bool) (log []string, events uint64, end Time) {
	t.Helper()
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("t=%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	naps := []Time{0, 0, 10 * Millisecond, 0}

	k.At(0, func() { mb.PutKeyed("m0", 0, 0) })
	if parked {
		k.Spawn(L("rx"), func(p *Proc) {
			for _, nap := range naps {
				logf("rx got %v", mb.RecvKeyed(p, AnyKey, 0))
				p.Hold(nap)
				logf("rx woke")
			}
		})
	} else {
		got := 0
		var rx *Proc
		take := func(v any) {
			logf("rx got %v", v)
			rx.WakeAt(rx.Now() + naps[got])
			got++
		}
		woke := 0
		rx = k.Spawn(L("rx"), func(p *Proc) {
			if woke < got {
				woke++
				logf("rx woke")
			}
			if got < len(naps) {
				mb.RecvFunc(p, AnyKey, 0, take)
			}
		})
	}
	k.Spawn(L("tx"), func(p *Proc) {
		p.HoldUntil(5 * Millisecond)
		logf("tx puts m1")
		mb.PutKeyed("m1", 0, 0)
		k.At(p.Now(), func() { logf("callback after m1") })
		p.Hold(0)
		logf("tx resumed")
		p.HoldUntil(6 * Millisecond)
		mb.PutKeyed("m2", 0, 0)
		logf("tx put m2")
		p.HoldUntil(8 * Millisecond)
		mb.PutKeyed("m3", 0, 0)
		logf("tx put m3")
	})
	k.Spawn(L("by"), func(p *Proc) {
		for _, at := range []Time{0, 5, 6, 8, 16} {
			p.HoldUntil(at * Millisecond)
			logf("bystander")
		}
	})
	for _, at := range []Time{0, 5, 16} {
		k.At(at*Millisecond, func() { logf("callback") })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := holders(k); n != 0 {
		t.Errorf("%d processes hold a coroutine after they all finished", n)
	}
	return log, k.Events(), k.Now()
}

// holders counts the processes that hold a coroutine: those running or
// suspended in a primitive. Idle coroutines belong to no process.
func holders(k *Kernel) int {
	n := 0
	for _, p := range k.Procs() {
		if p.co != nil {
			n++
		}
	}
	return n
}

// TestDormantRecvFuncMatchesParkedReceiver: a RecvFunc callback runs in the
// slot the parked receiver's wakeup took, and WakeAt schedules the one
// wakeup Hold did, so twin kernels run every handler in the same order and
// process the same events, whether the message was queued or put later.
func TestDormantRecvFuncMatchesParkedReceiver(t *testing.T) {
	wantLog, wantEvents, wantEnd := twinRun(t, true)
	log, events, end := twinRun(t, false)
	if !reflect.DeepEqual(log, wantLog) {
		t.Errorf("dormant receiver's handler order differs from the parked one's:\n got  %q\n want %q", log, wantLog)
	}
	if events != wantEvents || end != wantEnd {
		t.Errorf("dormant receiver: %d events ending at %v, parked: %d ending at %v", events, end, wantEvents, wantEnd)
	}
	if len(wantLog) != 21 {
		t.Errorf("parked receiver logged %d lines, want 21: %q", len(wantLog), wantLog)
	}
}

// TestDormantBodyRerunsFromTheTop: a body that returns after WakeAt is not
// done. It holds no coroutine while it sleeps, and its body runs again from
// the top at each wakeup, on the one coroutine its partition made for it
// and keeps idle in between; a return with nothing armed finishes it, and
// its coroutine with it.
func TestDormantBodyRerunsFromTheTop(t *testing.T) {
	k := NewKernel(1)
	runs := 0
	var at []Time
	p := k.Spawn(L("napper"), func(p *Proc) {
		runs++
		at = append(at, p.Now())
		if runs < 4 {
			p.WakeAt(p.Now() + Millisecond)
		}
	})
	var held []bool
	var kept []int
	for i := Time(0); i < 3; i++ {
		k.At(i*Millisecond+Millisecond/2, func() {
			held = append(held, p.co != nil)
			kept = append(kept, k.Coroutines())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, Millisecond, 2 * Millisecond, 3 * Millisecond}; !reflect.DeepEqual(at, want) {
		t.Errorf("body ran at %v, want %v", at, want)
	}
	if want := []bool{false, false, false}; !reflect.DeepEqual(held, want) {
		t.Errorf("held a coroutine while dormant: %v, want %v", held, want)
	}
	if want := []int{1, 1, 1}; !reflect.DeepEqual(kept, want) {
		t.Errorf("coroutines the kernel kept while the process slept: %v, want %v: one, reused", kept, want)
	}
	if !p.done || p.co != nil || k.Coroutines() != 0 {
		t.Errorf("after its last run: done=%v, holds a coroutine=%v, the kernel holds %d; want done, none, 0",
			p.done, p.co != nil, k.Coroutines())
	}
	// The spawn wakeup, three WakeAt wakeups and three callbacks.
	if got := k.Events(); got != 7 {
		t.Errorf("events = %d, want 7", got)
	}
	k.Shutdown()
}

// TestDormantDeadlockReportKeepsText: a live process dormant on RecvFunc is
// blocked exactly as one parked in RecvKeyed, and a deadlock report names
// it in the same words.
func TestDormantDeadlockReportKeepsText(t *testing.T) {
	report := func(dormant bool) string {
		k := NewKernel(1)
		mb := NewMailbox(L("mb", 3))
		k.Spawn(L("rx", 7), func(p *Proc) {
			if dormant {
				mb.RecvFunc(p, AnyKey, 0, func(any) { t.Error("callback ran with nothing put") })
				return
			}
			mb.RecvKeyed(p, AnyKey, 0)
		})
		err := k.Run()
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("Run = %v, want a deadlock", err)
		}
		k.Shutdown()
		return err.Error()
	}
	want := "sim: deadlock at 0s: 1 blocked process(es): [rx7: recv mb3]"
	if got := report(false); got != want {
		t.Fatalf("parked receiver: %q, want %q", got, want)
	}
	if got := report(true); got != want {
		t.Errorf("dormant receiver: %q, want %q", got, want)
	}
}

// TestDormantShutdownLeavesNoGoroutine: dormant daemons and processes never
// resumed hold no goroutine, even before Shutdown; Shutdown, which has no
// coroutine of theirs to stop, ends the idle one a dormant body gave back,
// and leaves none behind.
func TestDormantShutdownLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	for i := 0; i < 8; i++ {
		k.SpawnDaemonIn(0, L("daemon", i), func(p *Proc) {
			mb.RecvFunc(p, AnyKey, 0, func(any) {}) // dormant for good: nothing is put
		})
	}
	k.Spawn(L("app"), func(p *Proc) { p.Hold(Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each daemon's body went dormant before the next one ran, and the app
	// ran after them: one coroutine served all nine, and ended with the
	// app's body.
	if n := k.Coroutines(); n != 0 {
		t.Errorf("after the run the kernel holds %d coroutines, want 0", n)
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("dormant daemons hold goroutines: %d before the run, %d after it", before, after)
	}
	k.Shutdown()

	// A run that ends while a process sleeps dormant leaves the coroutine
	// its body gave back idle, and Shutdown ends it.
	k = NewKernel(1)
	k.Spawn(L("napper"), func(p *Proc) { p.WakeAt(p.Now() + Second) })
	k.SetHorizon(Millisecond)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n, held := k.Coroutines(), holders(k); n != 1 || held != 0 {
		t.Errorf("at the horizon the kernel holds %d coroutines, %d of them processes'; want 1, idle", n, held)
	}
	k.Shutdown()
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("an idle coroutine outlived Shutdown: %d goroutines before, %d after", before, after)
	}

	k = NewKernel(1)
	for i := 0; i < 16; i++ {
		k.Spawn(L("p"), func(p *Proc) { t.Error("a process body ran despite the interrupt") })
	}
	k.Interrupt()
	if err := k.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("processes never resumed hold goroutines: %d before, %d after", before, after)
	}
	k.Shutdown()
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after Shutdown", before, after)
	}
}

// TestDormantPanicInRerunSurfacesFromRun: a panic in a body rerun on a
// fresh coroutine comes out of Run on the caller's goroutine with its
// original value at every worker count, the first in partition order when
// partitions 1 and 3 panic in the same round; Shutdown then reaps the rest.
func TestDormantPanicInRerunSurfacesFromRun(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			raiseProcs(t, workers)
			before := runtime.NumGoroutine()
			k := NewKernel(1)
			k.SetPartitions(4, Microsecond)
			k.SetRunWorkers(workers)
			var boom [4]error
			mbs := make([]Mailbox, 4)
			for i := range boom {
				boom[i] = fmt.Errorf("boom in partition %d's rerun", i)
				mb := &mbs[i]
				*mb = NewMailbox(L("req", i))
				served := false
				var d *Proc
				d = k.SpawnDaemonIn(i, L("daemon", i), func(p *Proc) {
					if served && i%2 == 1 {
						panic(boom[i])
					}
					mb.RecvFunc(p, AnyKey, 0, func(any) {
						served = true
						d.WakeAt(d.Now())
					})
				})
				// Every partition's request lands in one round.
				k.PartAt(i, 10*Microsecond, func() { mb.PutKeyed(i, 0, 0) })
				k.SpawnIn(i, L("worker"), func(p *Proc) { p.Hold(Second) })
			}
			got := func() (v any) {
				defer func() { v = recover() }()
				err := k.Run()
				t.Errorf("Run returned %v without panicking", err)
				return nil
			}()
			if got != boom[1] {
				t.Fatalf("recovered %v, want %v", got, boom[1])
			}
			k.Shutdown()
			if after := settleGoroutines(t, before); after > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, after)
			}
		})
	}
}

// TestDormantInterruptWhileDaemonSleeps: a run interrupted while a daemon
// sleeps dormant in WakeAt returns ErrCanceled without rerunning the
// daemon's body; only the suspended application holds a coroutine — the
// one the daemon's first run gave back — and Shutdown reaps it.
func TestDormantInterruptWhileDaemonSleeps(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	mb := NewMailbox(L("req"))
	runs := 0
	var d *Proc
	d = k.SpawnDaemonIn(0, L("daemon"), func(p *Proc) {
		runs++
		mb.RecvFunc(p, AnyKey, 0, func(any) { d.WakeAt(d.Now() + Second) })
	})
	k.Spawn(L("app"), func(p *Proc) {
		mb.PutKeyed("request", 0, 0)
		for {
			p.Hold(Millisecond)
		}
	})
	k.At(500*Millisecond, k.Interrupt)
	if err := k.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	if runs != 1 {
		t.Errorf("daemon body ran %d times, want once: the interrupt came mid-sleep", runs)
	}
	if n, held := k.Coroutines(), holders(k); n != 1 || held != 1 || d.co != nil {
		t.Errorf("the kernel holds %d coroutines, %d of them processes', the daemon's among them: %v; want 1, the application's",
			n, held, d.co != nil)
	}
	k.Shutdown()
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after Shutdown", before, after)
	}
}

// TestDormantWakeAtRefusesSuspendedProcess: WakeAt is for dormant or
// running processes; waking one suspended in a primitive would resume it
// early, so WakeAt panics instead.
func TestDormantWakeAtRefusesSuspendedProcess(t *testing.T) {
	k := NewKernel(1)
	sleeper := k.Spawn(L("sleeper"), func(p *Proc) { p.Hold(Second) })
	var got any
	k.At(Millisecond, func() {
		defer func() { got = recover() }()
		sleeper.WakeAt(2 * Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Error("WakeAt on a process suspended in Hold did not panic")
	}
	k.Shutdown()
}
