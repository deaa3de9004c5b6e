package scenario

import (
	"context"
	"os"
	"testing"
)

// scale16kQuick is the quick variant of the scale16k builtin: same 16384
// ranks, same modern calibration and GP1 mode, but a ~1-second virtual
// lifetime with the checkpoint interval and MTBF shrunk to match, so the
// cell still exercises epochs and an injected failure while simulating in
// a couple of wall-clock seconds.
func scale16kQuick(t *testing.T) *Spec {
	t.Helper()
	s, ok := BuiltIn("scale16k")
	if !ok {
		t.Fatal("scale16k builtin missing")
	}
	s.Workload.Iters = 4
	s.Checkpoint.IntervalS = 0.3
	s.Failures.MTBFS = 0.4
	return s
}

// TestScale16kQuickGolden pins the 16384-rank path's output byte-for-byte,
// so CI diffs it on every run instead of only benchmarking it: the
// coroutine scheduler, pooled message path, and sparse per-peer state
// all sit under this cell, and a behavioural regression in any of them
// moves the table. Regenerate after an intentional change with
// UPDATE_GOLDEN=1 go test ./internal/scenario -run TestScale16kQuickGolden
func TestScale16kQuickGolden(t *testing.T) {
	tb, err := scale16kQuick(t).RunObserved(context.Background(), 0, Instrument{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tb.String()
	const path = "testdata/scale16k-quick.golden"
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("16384-rank output drifted from golden (regenerate with UPDATE_GOLDEN=1 if intentional)\n--- want\n%s--- got\n%s", want, got)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
}
