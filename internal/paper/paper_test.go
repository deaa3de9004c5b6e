package paper

import (
	"context"
	"testing"

	"repro/internal/runner"
)

// TestOptionsReps pins the defaults the figures read: the paper's five
// repetitions, two under Quick, and explicit Scales overriding both
// figure-specific lists.
func TestOptionsReps(t *testing.T) {
	var o Options
	if o.reps() != 5 {
		t.Errorf("default reps = %d", o.reps())
	}
	if (Options{Quick: true}).reps() != 2 {
		t.Error("quick reps != 2")
	}
	if got := (Options{Scales: []int{9}}).scales([]int{1}, []int{2}); got[0] != 9 {
		t.Error("explicit scales ignored")
	}
}

// TestParallelMatchesSerial is the engine's core guarantee: fanning every
// figure's run matrix across workers produces byte-identical tables to
// running it serially, because every run is seeded from its cell. Each
// render starts from an empty sweep memo, or the second would read the
// first's points; the tracing formations they share are built once, and
// TestConcurrentFormationCache covers building them concurrently.
func TestParallelMatchesSerial(t *testing.T) {
	base := Options{Quick: true, Reps: 2, Scales: []int{16}}

	render := func(o Options) []string {
		memo = runner.Memo[[]point]{}
		var out []string
		for _, e := range Experiments() {
			tabs, err := e.Run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			for _, tb := range tabs {
				out = append(out, tb.String())
			}
		}
		if memo.Len() == 0 {
			t.Fatal("no figure ran through the sweep memo")
		}
		return out
	}

	serial := base
	serial.Workers = 1
	parallel := base
	parallel.Workers = 4

	want := render(serial)
	got := render(parallel)
	if len(got) != len(want) {
		t.Fatalf("serial rendered %d tables, parallel %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("table %d differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
				i, want[i], got[i])
		}
	}
}
