// Package runner is the worker pool under every run matrix: it fans
// independent simulation runs across GOMAXPROCS goroutines and collects
// their results in stable input order (MapCtx) or streams them as they
// finish (Each).
//
// Every run in this repository is a deterministic discrete-event simulation
// seeded from its matrix cell (scale, mode, repetition), so runs share no
// state and their results do not depend on scheduling. The runner exploits
// that: scenario.Matrix hands it a sweep's cells as a flat slice, and
// MapCtx guarantees results[i] corresponds to keys[i] no matter which
// worker executed it or in what order workers finished. Parallel output is
// therefore byte-identical to serial output.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// the process's GOMAXPROCS, i.e. every core the runtime will schedule on.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// MapCtx applies fn to every key on up to workers goroutines and returns
// the results in input order: results[i] is fn(keys[i]). workers <= 0
// means DefaultWorkers(); the pool never exceeds len(keys).
//
// fn must be safe to call concurrently from multiple goroutines. If any call
// fails, MapCtx stops handing out new keys, waits for in-flight calls, and
// returns the error of the lowest-indexed failed key (deterministic even
// when several keys fail in the same batch) along with a nil slice. Once
// ctx is done the pool likewise stops and returns the context's error,
// unless a key failed first. fn itself is expected to observe ctx through
// its closure if its work should stop mid-key.
func MapCtx[K, T any](ctx context.Context, workers int, keys []K, fn func(K) (T, error)) ([]T, error) {
	n := len(keys)
	if n == 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines, errors abort immediately.
		results := make([]T, n)
		for i, k := range keys {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(k)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	results := make([]T, n)
	var (
		next    atomic.Int64 // next key index to claim
		failed  atomic.Bool  // stops new claims after the first error
		errMu   sync.Mutex
		errIdx  = n // lowest failed index seen so far
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check for failure before claiming: indexes are
				// claimed in order and a claimed index always runs,
				// so every key below a failed key executes and the
				// lowest-indexed error is always observed.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(keys[i])
				if err != nil {
					failed.Store(true)
					errMu.Lock()
					if i < errIdx {
						errIdx, firstEr = i, err
					}
					errMu.Unlock()
					return
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Indexed carries one streamed result: the input index it belongs to and
// either its value or its error.
type Indexed[T any] struct {
	Index int
	Val   T
	Err   error
}

// Each applies fn to every key on up to workers goroutines and delivers
// results on the returned channel in completion order — the streaming
// counterpart to MapCtx, for consumers that want cells as they finish rather
// than a barrier at the end. The channel closes once every claimed key has
// been delivered or dropped.
//
// Cancellation contract: when ctx is done, workers stop claiming new keys
// and stop delivering (an undeliverable in-flight result is dropped), so a
// consumer that cancels and then drains the channel never leaks a
// goroutine. Unlike MapCtx, an error result does not stop the pool — the
// consumer decides whether to cancel.
func Each[K, T any](ctx context.Context, workers int, keys []K, fn func(K) (T, error)) <-chan Indexed[T] {
	n := len(keys)
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	out := make(chan Indexed[T])
	if n == 0 {
		close(out)
		return out
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(keys[i])
				select {
				case out <- Indexed[T]{Index: i, Val: v, Err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Memo is a concurrency-safe memoization table keyed by string, used for
// expensive shared artifacts (tracing passes, the paper's sweeps).
// Concurrent callers of Get with the same key block until the single build
// completes and then share its result; callers with different keys build
// concurrently. Results — including errors — stay cached until Forget.
type Memo[T any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

// Get returns the cached value for key, building it with build on first use.
func (c *Memo[T]) Get(key string, build func() (T, error)) (T, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]*memoEntry[T]{}
	}
	e := c.m[key]
	if e == nil {
		e = &memoEntry[T]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// Forget drops the entry for key (no-op if absent), so a later Get rebuilds
// it. Used to avoid caching transient failures — a canceled context must
// not poison the cache for every later caller of the same key.
func (c *Memo[T]) Forget(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// Len reports how many keys have an entry (built or in flight).
func (c *Memo[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
