package harness

import (
	"context"
	"sync"
	"testing"

	"repro/internal/group"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestConcurrentFormationCache hammers the formation cache from many
// goroutines: same-key callers must share one tracing pass, different keys
// must not corrupt each other. Run under -race in CI.
func TestConcurrentFormationCache(t *testing.T) {
	formationCache = runner.Memo[group.Formation]{} // every key builds here
	specs := []Spec{
		{WL: workload.NewSynthetic(8, 40), Mode: GP, Seed: 1},
		{WL: workload.NewSynthetic(8, 40), Mode: GP, Seed: 2},  // same key as above
		{WL: workload.NewSynthetic(16, 40), Mode: GP, Seed: 1}, // distinct key
	}
	const perSpec = 8
	got := make([]string, len(specs)*perSpec)
	var wg sync.WaitGroup
	for i := 0; i < len(got); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := formationFor(context.Background(), specs[i%len(specs)])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = f.String()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[i%len(specs)] {
			t.Errorf("goroutine %d saw formation %q, want %q", i, got[i], got[i%len(specs)])
		}
	}
	if n := formationCache.Len(); n != 2 {
		t.Errorf("formation cache has %d entries, want 2 (one per distinct key)", n)
	}
}

// TestConcurrentRuns runs full GP simulations concurrently — the workload
// the parallel engine puts on Run — and checks determinism of the results.
func TestConcurrentRuns(t *testing.T) {
	formationCache = runner.Memo[group.Formation]{} // the runs share one build
	spec := Spec{
		WL: workload.NewSynthetic(8, 40), Mode: GP, Seed: 42,
		Sched: Schedule{At: 1e9},
	}
	const n = 6
	times := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Run(context.Background(), spec)
			if err != nil {
				t.Error(err)
				return
			}
			times[i] = res.ExecTime.Seconds()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if times[i] != times[0] {
			t.Errorf("run %d finished at %v, run 0 at %v — identical specs must be deterministic",
				i, times[i], times[0])
		}
	}
}
