package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary re-exec itself as the real CLI (the same
// pattern as cmd/gbexp).
func TestMain(m *testing.M) {
	if os.Getenv("BENCHDIFF_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHDIFF_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

const baseJSON = `{"commit": "aaa", "benchmarks": [
	{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "runs": 1, "nsPerOp": 1000000},
	{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 200},
	{"pkg": "repro", "name": "BenchmarkFig01CoordinationCost", "runs": 1, "nsPerOp": 5}
]}`

func TestWithinThresholdExitsZero(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/base.json", baseJSON)
	write(t, dir+"/cur.json", `{"commit": "bbb", "benchmarks": [
		{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "runs": 1, "nsPerOp": 1100000},
		{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 190}
	]}`)
	out, err := runCLI(t, "-baseline", dir+"/base.json", "-current", dir+"/cur.json")
	if err != nil {
		t.Fatalf("within-threshold diff exited non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "within 20%") {
		t.Errorf("no summary line:\n%s", out)
	}
}

func TestRegressionExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/base.json", baseJSON)
	write(t, dir+"/cur.json", `{"commit": "bbb", "benchmarks": [
		{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "runs": 1, "nsPerOp": 1300000}
	]}`)
	out, err := runCLI(t, "-baseline", dir+"/base.json", "-current", dir+"/cur.json")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("+30%% regression did not exit 1 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "SLOW") || !strings.Contains(out, "BenchmarkScenario4096") {
		t.Errorf("regression not flagged:\n%s", out)
	}
}

func TestFigureBenchmarksIgnoredByDefault(t *testing.T) {
	// End-to-end figure regenerations are deliberately outside the default
	// filter: their wall clock is dominated by experiment size, not the
	// kernel hot path, and they run at -benchtime=1x in CI.
	dir := t.TempDir()
	write(t, dir+"/base.json", baseJSON)
	write(t, dir+"/cur.json", `{"commit": "bbb", "benchmarks": [
		{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "runs": 1, "nsPerOp": 1000000},
		{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 200},
		{"pkg": "repro", "name": "BenchmarkFig01CoordinationCost", "runs": 1, "nsPerOp": 500}
	]}`)
	out, err := runCLI(t, "-baseline", dir+"/base.json", "-current", dir+"/cur.json")
	if err != nil {
		t.Fatalf("figure 100x slowdown must not fail the default filter: %v\n%s", err, out)
	}
	if strings.Contains(out, "Fig01") {
		t.Errorf("figure benchmark compared despite filter:\n%s", out)
	}
}

func TestMissingCurrentExitsUsage(t *testing.T) {
	out, err := runCLI(t)
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("missing -current did not exit 2 (err=%v):\n%s", err, out)
	}
}

func TestMissingGuardedBenchmarkFlagged(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/base.json", baseJSON)
	// BenchmarkScenario4096 vanished from the fresh report entirely.
	write(t, dir+"/cur.json", `{"commit": "bbb", "benchmarks": [
		{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 200}
	]}`)
	out, err := runCLI(t, "-baseline", dir+"/base.json", "-current", dir+"/cur.json")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("missing guarded benchmark did not exit 1 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "GONE") || !strings.Contains(out, "BenchmarkScenario4096") {
		t.Errorf("missing benchmark not flagged:\n%s", out)
	}
}

// stamped returns a report for commit with the given hardware stamp and
// benchmarks (JSON objects).
func stamped(commit, cpu string, nproc int, benchmarks ...string) string {
	return fmt.Sprintf(`{"commit": %q, "cpu": %q, "nproc": %d, "benchmarks": [%s]}`,
		commit, cpu, nproc, strings.Join(benchmarks, ","))
}

const (
	hold2     = `{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "procs": 2, "runs": 10, "nsPerOp": 205}`
	scenario2 = `{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "procs": 2, "runs": 1, "nsPerOp": 1010000}`
)

func TestSuffixedNamesMatchBareBaseline(t *testing.T) {
	// A report from go test at GOMAXPROCS 2: today's benchjson moves the
	// -2 into procs; an older one left it on the name. Both must match the
	// bare-named baseline.
	for name, cur := range map[string]string{
		"procs field": stamped("bbb", "Xeon", 2, hold2, scenario2),
		"old suffix": `{"commit": "bbb", "benchmarks": [
			{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold-2", "runs": 10, "nsPerOp": 205},
			{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096-2", "runs": 1, "nsPerOp": 1010000}]}`,
	} {
		dir := t.TempDir()
		write(t, dir+"/base.json", baseJSON)
		write(t, dir+"/cur.json", cur)
		out, err := runCLI(t, "-baseline", dir+"/base.json", "-current", dir+"/cur.json")
		if err != nil {
			t.Fatalf("%s: exited non-zero: %v\n%s", name, err, out)
		}
		if strings.Contains(out, "GONE") || strings.Contains(out, "NEW") || !strings.Contains(out, "2 benchmark(s) within 20%") {
			t.Errorf("%s: suffixed names did not match the baseline:\n%s", name, out)
		}
	}
}

func TestCrossHardwareExitsTwo(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/base.json", stamped("aaa", "Xeon", 2, hold2, scenario2))
	// +50% would be a regression on one machine; across two it is no verdict.
	write(t, dir+"/cur.json", stamped("bbb", "EPYC", 64,
		`{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "procs": 64, "runs": 10, "nsPerOp": 300}`))
	out, err := runCLI(t, "-baseline", dir+"/base.json", "-current", dir+"/cur.json")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("cross-hardware diff did not exit 2 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "xhw") || strings.Contains(out, "SLOW") ||
		!strings.Contains(out, `"Xeon" with 2 CPUs`) || !strings.Contains(out, `"EPYC" with 64 CPUs`) {
		t.Errorf("cross-hardware rows not tagged or stamps not named:\n%s", out)
	}
}

func TestSameHardwareComparesWithoutNote(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/base.json", stamped("aaa", "Xeon", 2, hold2, scenario2))
	write(t, dir+"/cur.json", stamped("bbb", "Xeon", 2, hold2, scenario2))
	out, err := runCLI(t, "-baseline", dir+"/base.json", "-current", dir+"/cur.json")
	if err != nil {
		t.Fatalf("same-hardware diff exited non-zero: %v\n%s", err, out)
	}
	if strings.Contains(out, "note:") || strings.Contains(out, "xhw") {
		t.Errorf("same-hardware diff noted or tagged:\n%s", out)
	}
}

func TestUnstampedBaselineComparedWithNote(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/base.json", baseJSON)
	write(t, dir+"/cur.json", stamped("bbb", "Xeon", 2,
		`{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "procs": 2, "runs": 1, "nsPerOp": 1300000}`))
	out, err := runCLI(t, "-baseline", dir+"/base.json", "-current", dir+"/cur.json")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("+30%% regression against an unstamped baseline did not exit 1 (err=%v):\n%s", err, out)
	}
	if n := strings.Count(out, "note:"); n != 1 || !strings.Contains(out, "base.json carries no hardware stamp") {
		t.Errorf("want one note naming the unstamped baseline, got %d:\n%s", n, out)
	}
}
