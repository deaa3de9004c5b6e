package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestInterruptReturnsErrCanceled interrupts a run from another goroutine
// and checks Run comes back with the sentinel instead of simulating to
// completion.
func TestInterruptReturnsErrCanceled(t *testing.T) {
	k := NewKernel(1)
	var iters int
	k.Spawn(L("spinner"), func(p *Proc) {
		for i := 0; i < 1_000_000_000; i++ {
			iters++
			p.Hold(Millisecond)
		}
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		k.Interrupt()
	}()
	err := k.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	if iters == 0 || iters == 1_000_000_000 {
		t.Fatalf("interrupt landed at %d iterations, want mid-run", iters)
	}
	k.Shutdown()
}

// TestInterruptBeforeRun cancels before any event is processed.
func TestInterruptBeforeRun(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Spawn(L("p"), func(p *Proc) { ran = true })
	k.Interrupt()
	if err := k.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("process body ran despite pre-run interrupt")
	}
	k.Shutdown()
}

// settleGoroutines polls until the goroutine count drops to at most want, or
// times out. Goroutines a run started beside its processes (an interrupter,
// a pool worker) exit asynchronously, so one measurement can race them.
func settleGoroutines(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownUnwindsBlockedProcs proves the leak contract: after
// Run + Shutdown, no process goroutine survives, whether it finished,
// never started, was a parked daemon, or was interrupted mid-primitive.
func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		k := NewKernel(int64(i))
		mb := NewMailbox(L("mb"))
		k.SpawnDaemonIn(0, L("daemon"), func(p *Proc) {
			for {
				mb.RecvKeyed(p, AnyKey, 0) // parked forever: nothing sends
			}
		})
		for j := 0; j < 8; j++ {
			k.Spawn(L("worker"), func(p *Proc) { p.Hold(Second) })
		}
		go func() { k.Interrupt() }()
		if err := k.Run(); err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run: %v", err)
		}
		k.Shutdown()
	}
	if after := settleGoroutines(t, before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShutdownAfterNormalRunReapsDaemons: a run that completes normally
// still leaves daemon goroutines parked; Shutdown must reap them.
func TestShutdownAfterNormalRunReapsDaemons(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	k.SpawnDaemonIn(0, L("daemon"), func(p *Proc) {
		mb.RecvKeyed(p, AnyKey, 0)
	})
	k.Spawn(L("app"), func(p *Proc) { p.Hold(Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	k.Shutdown()
	if after := settleGoroutines(t, before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShutdownReapsUnstartedProcs: processes spawned but never resumed —
// the run was interrupted before its first event — get no coroutine, and
// Shutdown must leave no goroutine behind without ever running their
// bodies.
func TestShutdownReapsUnstartedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	ran := 0
	for i := 0; i < 16; i++ {
		k.Spawn(L("p"), func(p *Proc) { ran++ })
	}
	k.Interrupt()
	if err := k.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	k.Shutdown()
	if ran != 0 {
		t.Fatalf("%d process bodies ran", ran)
	}
	if after := settleGoroutines(t, before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestProcPanicSurfacesFromRun pins the panic contract on a 4-partition
// model: a panic in a process body comes out of Run on the caller's
// goroutine with its original value at every worker count. Partitions 1
// and 3 panic in the same round, so a worker pool must raise the first in
// partition order, as the one-worker event loop does by stepping them in
// that order, whichever members ran them. Shutdown then reaps every
// remaining process.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			raiseProcs(t, workers) // a pool of workers members, not fewer
			before := runtime.NumGoroutine()
			k := NewKernel(1)
			k.SetPartitions(4, Microsecond)
			k.SetRunWorkers(workers)
			var boom [4]error
			for i := range boom {
				i := i
				boom[i] = fmt.Errorf("boom in partition %d", i)
				mb := NewMailbox(L("idle"))
				k.SpawnDaemonIn(i, L("daemon"), func(p *Proc) { mb.RecvKeyed(p, AnyKey, 0) })
				k.SpawnIn(i, L("worker"), func(p *Proc) {
					p.Hold(10 * Microsecond) // every partition wakes in one round
					if i%2 == 1 {
						panic(boom[i])
					}
					p.Hold(Second)
				})
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

// TestShutdownIdempotent double-Shutdown must not hang or panic.
func TestShutdownIdempotent(t *testing.T) {
	k := NewKernel(1)
	k.Spawn(L("p"), func(p *Proc) { p.Hold(Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	k.Shutdown()
	k.Shutdown()
}
