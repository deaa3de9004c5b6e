package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrder: results must land at their key's index regardless of which
// worker ran them or how long each task took.
func TestMapOrder(t *testing.T) {
	keys := make([]int, 100)
	for i := range keys {
		keys[i] = i
	}
	for _, workers := range []int{0, 1, 3, 8, 200} {
		got, err := MapCtx(context.Background(), workers, keys, func(k int) (int, error) {
			// Reverse-skewed delay: late keys finish first under
			// parallelism, stressing the ordering guarantee.
			time.Sleep(time.Duration(100-k) * time.Microsecond)
			return k * k, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(keys) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(keys))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := MapCtx(context.Background(), 4, nil, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("MapCtx(empty) = %v, %v; want nil, nil", got, err)
	}
}

// TestMapBoundsWorkers: the pool must never run more than `workers` tasks at
// once.
func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	keys := make([]int, 64)
	_, err := MapCtx(context.Background(), workers, keys, func(int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

// TestMapErrorDeterministic: with many failing keys, Map must report the
// lowest-indexed error that actually ran, and with a full failure set that
// is always key 0's error.
func TestMapErrorDeterministic(t *testing.T) {
	keys := make([]int, 32)
	for i := range keys {
		keys[i] = i
	}
	for trial := 0; trial < 20; trial++ {
		_, err := MapCtx(context.Background(), 8, keys, func(k int) (int, error) {
			return 0, fmt.Errorf("key %d failed", k)
		})
		if err == nil {
			t.Fatal("want error, got nil")
		}
		if err.Error() != "key 0 failed" {
			t.Fatalf("trial %d: got %q, want lowest-indexed error %q", trial, err, "key 0 failed")
		}
	}
}

// TestMapErrorStopsScheduling: after a failure no new keys should start
// (in-flight ones may finish).
func TestMapErrorStopsScheduling(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	keys := make([]int, 1000)
	for i := range keys {
		keys[i] = i
	}
	_, err := MapCtx(context.Background(), 2, keys, func(k int) (int, error) {
		started.Add(1)
		if k == 0 {
			return 0, boom
		}
		time.Sleep(100 * time.Microsecond)
		return k, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if s := started.Load(); s > 100 {
		t.Fatalf("%d tasks started after early failure; scheduling did not stop", s)
	}
}

// TestMapErrorLowestIndexAmongMixed: when only some keys fail, the reported
// error must be the lowest-indexed failing key even if a higher-indexed key
// fails first in wall-clock time.
func TestMapErrorLowestIndexAmongMixed(t *testing.T) {
	keys := make([]int, 64)
	for i := range keys {
		keys[i] = i
	}
	for trial := 0; trial < 20; trial++ {
		_, err := MapCtx(context.Background(), 8, keys, func(k int) (int, error) {
			switch {
			case k == 40:
				// Fails instantly, long before key 17 below.
				return 0, fmt.Errorf("key %d failed", k)
			case k == 17:
				time.Sleep(500 * time.Microsecond)
				return 0, fmt.Errorf("key %d failed", k)
			default:
				time.Sleep(50 * time.Microsecond)
				return k, nil
			}
		})
		if err == nil {
			t.Fatal("want error, got nil")
		}
		if err.Error() != "key 17 failed" {
			t.Fatalf("trial %d: got %q, want %q", trial, err, "key 17 failed")
		}
	}
}

// TestMemoSingleBuild: concurrent Gets of one key must run the build exactly
// once and share the value; distinct keys build independently.
func TestMemoSingleBuild(t *testing.T) {
	var m Memo[int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	vals := make([]int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := m.Get("k", func() (int, error) {
				builds.Add(1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("build ran %d times, want 1", b)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d, want 42", i, v)
		}
	}
	if v, _ := m.Get("other", func() (int, error) { builds.Add(1); return 7, nil }); v != 7 {
		t.Fatalf("second key = %d, want 7", v)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
}

// TestMemoErrorCachedUntilForget: a failed build is cached (deterministic
// simulations fail identically on retry) and cleared by Forget.
func TestMemoErrorCachedUntilForget(t *testing.T) {
	var m Memo[int]
	var builds atomic.Int64
	boom := errors.New("boom")
	build := func() (int, error) {
		builds.Add(1)
		return 0, boom
	}
	if _, err := m.Get("k", build); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if _, err := m.Get("k", build); !errors.Is(err, boom) {
		t.Fatalf("cached: got %v, want %v", err, boom)
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (error should be cached)", builds.Load())
	}
	m.Forget("k")
	if v, err := m.Get("k", func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("after Forget: %d, %v; want 9, nil", v, err)
	}
}

func TestMapCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, 4, []int{1, 2, 3}, func(k int) (int, error) { return k, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	keys := make([]int, 1000)
	_, err := MapCtx(ctx, 4, keys, func(k int) (int, error) {
		if started.Add(1) == 10 {
			cancel()
		}
		return k, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d keys ran despite cancellation", n)
	}
}

func TestMapCtxKeyErrorBeatsCancel(t *testing.T) {
	// A key failure and a cancellation in the same batch: the key error
	// wins (deterministic, matches Map's lowest-index rule).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 2, []int{0, 1}, func(k int) (int, error) {
		if k == 0 {
			cancel()
			return 0, boom
		}
		return k, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the key error", err)
	}
}

func TestEachStreamsAllResults(t *testing.T) {
	keys := []int{10, 20, 30, 40, 50}
	seen := map[int]int{}
	for r := range Each(context.Background(), 3, keys, func(k int) (int, error) { return k * 2, nil }) {
		if r.Err != nil {
			t.Fatalf("key %d: %v", r.Index, r.Err)
		}
		seen[r.Index] = r.Val
	}
	if len(seen) != len(keys) {
		t.Fatalf("got %d results, want %d", len(seen), len(keys))
	}
	for i, k := range keys {
		if seen[i] != k*2 {
			t.Fatalf("index %d: got %d, want %d", i, seen[i], k*2)
		}
	}
}

func TestEachErrorsDoNotStopPool(t *testing.T) {
	boom := errors.New("boom")
	var oks, errs int
	for r := range Each(context.Background(), 2, []int{0, 1, 2, 3}, func(k int) (int, error) {
		if k%2 == 0 {
			return 0, boom
		}
		return k, nil
	}) {
		if r.Err != nil {
			errs++
		} else {
			oks++
		}
	}
	if oks != 2 || errs != 2 {
		t.Fatalf("got %d oks, %d errs; want 2 and 2", oks, errs)
	}
}

func TestEachCancelAndDrainDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		keys := make([]int, 100)
		ch := Each(ctx, 4, keys, func(k int) (int, error) { return k, nil })
		// Read one result, cancel, drain.
		<-ch
		cancel()
		for range ch {
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}
