package scenario

import (
	"context"
	"os"
	"runtime"
	"testing"
)

// scale64kQuick is the quick variant of the scale64k builtin: the same
// 65536 ranks split across 64 group partitions, same modern calibration
// and GP1 mode, but a sub-second virtual lifetime with the checkpoint
// interval and MTBF shrunk to match, so the cell still exercises epochs
// and an injected failure while simulating in seconds of wall clock.
func scale64kQuick(t *testing.T) *Spec {
	t.Helper()
	s, ok := BuiltIn("scale64k")
	if !ok {
		t.Fatal("scale64k builtin missing")
	}
	s.Workload.Iters = 2
	s.Checkpoint.IntervalS = 0.3
	s.Failures.MTBFS = 0.4
	return s
}

// TestScale64kQuickGolden pins the 65536-rank partitioned path's output
// byte-for-byte. At this scale the kernel splits the world into 64
// group-partitioned sub-kernels (harness.DefaultPartitionMinRanks is far
// below 65536), so this golden covers the conservative-lookahead round
// loop, cross-partition delivery, and the barrier-sorted record flush —
// the whole machinery TestScale16kQuickGolden's serial-era golden never
// touched. Regenerate after an intentional change with
// UPDATE_GOLDEN=1 go test ./internal/scenario -run TestScale64kQuickGolden
func TestScale64kQuickGolden(t *testing.T) {
	tb, err := scale64kQuick(t).RunObserved(context.Background(), 0, Instrument{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tb.String()
	const path = "testdata/scale64k-quick.golden"
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
		t.Errorf("65536-rank output drifted from golden (regenerate with UPDATE_GOLDEN=1 if intentional)\n--- want\n%s--- got\n%s", want, got)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
}

// TestScale64kQuickWorkerIdentity is the headline determinism claim, pinned
// against the committed golden: the same partitioned cell produces
// byte-identical output whether its partitions run serially or spread
// across 8 (and NumCPU) worker threads. The partition schedule is a pure
// function of the spec, so worker count may only change wall-clock time.
func TestScale64kQuickWorkerIdentity(t *testing.T) {
	want, err := os.ReadFile("testdata/scale64k-quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{8, runtime.NumCPU()}
	for _, w := range counts {
		tb, err := scale64kQuick(t).RunObserved(context.Background(), 0, Instrument{RunWorkers: w}, nil)
		if err != nil {
			t.Fatalf("RunWorkers=%d: %v", w, err)
		}
		if got := tb.String(); got != string(want) {
			t.Errorf("RunWorkers=%d output differs from the serial golden\n--- want\n%s--- got\n%s", w, want, got)
		}
	}
}
