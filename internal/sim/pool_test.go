package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// The worker pool lives for one Run: its helpers start when a partitioned
// run does and have all exited by the time Run returns, however the run
// ends. Each case runs at RunWorkers 2 and 4 with GOMAXPROCS raised to 4,
// so that both pools really have that many members.

// raiseProcs sets GOMAXPROCS to at least n until the test ends.
func raiseProcs(t *testing.T, n int) {
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// runRecovering runs k and returns the value it panicked with or Run's
// error.
func runRecovering(k *Kernel) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, k.Run()
}

func TestPoolHelpersExitWithRun(t *testing.T) {
	raiseProcs(t, 4)
	boom := errors.New("boom")
	cases := []struct {
		name  string
		build func(workers int) *Kernel
		check func(err error, panicked any) bool
	}{
		{"drain", func(w int) *Kernel { return newRingModel(w).k },
			func(err error, v any) bool { return err == nil && v == nil }},
		{"panic", func(w int) *Kernel {
			k := newRingModel(w).k
			k.SpawnIn(1, L("bomb"), func(p *Proc) {
				p.Hold(50 * Microsecond)
				panic(boom)
			})
			return k
		}, func(err error, v any) bool { return v == boom }},
		{"interrupt-outside", func(w int) *Kernel {
			k := NewKernel(1)
			k.SetPartitions(ringParts, ringLookahead)
			k.SetRunWorkers(w)
			for i := 0; i < ringParts; i++ {
				k.SpawnIn(i, L("spinner"), func(p *Proc) {
					for {
						p.Hold(Microsecond)
					}
				})
			}
			started := make(chan struct{})
			k.PartAt(0, Microsecond, func() { close(started) })
			go func() {
				<-started
				k.Interrupt()
			}()
			return k
		}, func(err error, v any) bool { return errors.Is(err, ErrCanceled) && v == nil }},
		{"interrupt-global", func(w int) *Kernel {
			k := newRingModel(w).k
			k.GlobalAt(120*Microsecond, k.Interrupt)
			return k
		}, func(err error, v any) bool { return errors.Is(err, ErrCanceled) && v == nil }},
		{"horizon", func(w int) *Kernel {
			k := newRingModel(w).k
			k.SetHorizon(150 * Microsecond)
			return k
		}, func(err error, v any) bool { return err == nil && v == nil }},
		{"deadlock", func(w int) *Kernel {
			k := newRingModel(w).k
			never := NewMailbox(L("never"))
			k.SpawnIn(2, L("stuck"), func(p *Proc) { never.RecvKeyed(p, AnyKey, 0) })
			return k
		}, func(err error, v any) bool {
			var de *DeadlockError
			return errors.As(err, &de) && v == nil
		}},
	}
	for _, c := range cases {
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				k := c.build(w)
				before := runtime.NumGoroutine() // the processes' coroutines included
				v, err := runRecovering(k)
				if !c.check(err, v) {
					t.Errorf("Run = %v, panicked with %v", err, v)
				}
				if got := k.PoolMembers(); got != w {
					t.Errorf("pool had %d members, want %d", got, w)
				}
				if after := settleGoroutines(t, before); after > before {
					t.Errorf("goroutines outlived Run: %d before, %d after", before, after)
				}
				k.Shutdown()
				if after := settleGoroutines(t, baseline); after > baseline {
					t.Errorf("goroutines leaked: %d before the model, %d after Shutdown", baseline, after)
				}
			})
		}
	}
}

// TestPoolMembersCappedAtGOMAXPROCS: a pool has min(RunWorkers, partitions,
// GOMAXPROCS) members, and no more goroutines than that run the windows —
// a member beyond the Ps would only take turns with the others. Mid-run,
// a global event counts the goroutines Run added: the helpers.
func TestPoolMembersCappedAtGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, workers, parts, want int }{
		{1, 4, 4, 1},
		{2, 8, 8, 2},
		{4, 2, 8, 2},
		{4, 8, 3, 3},
		{4, 4, 4, 4},
	} {
		runtime.GOMAXPROCS(c.procs)
		k := NewKernel(1)
		k.SetPartitions(c.parts, Microsecond)
		k.SetRunWorkers(c.workers)
		for i := 0; i < c.parts; i++ {
			k.SpawnIn(i, L("p"), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Hold(Microsecond)
				}
			})
		}
		during := -1
		k.GlobalAt(5*Microsecond, func() { during = runtime.NumGoroutine() })
		before := runtime.NumGoroutine()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		name := fmt.Sprintf("GOMAXPROCS %d, RunWorkers %d, %d partitions", c.procs, c.workers, c.parts)
		if got := k.PoolMembers(); got != c.want {
			t.Errorf("%s: pool had %d members, want %d", name, got, c.want)
		}
		if during < 0 || during-before > c.procs-1 {
			t.Errorf("%s: %d goroutines mid-run beside the %d before it, want at most %d helpers",
				name, during, before, c.procs-1)
		}
	}
}
