package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/gb"
)

// TestMain lets the test binary re-exec itself as the real CLI, so exit
// codes can be asserted without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("GBEXP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GBEXP_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestUnknownExperimentIDExitsNonZero(t *testing.T) {
	out, err := runCLI(t, "-exp", "fig99")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() == 0 {
		t.Fatalf("unknown id did not exit non-zero (err=%v); output:\n%s", err, out)
	}
	if !strings.Contains(out, `unknown experiment id "fig99"`) {
		t.Errorf("error does not name the bad id:\n%s", out)
	}
	// The error must list the valid ids, which come from the registry.
	for _, id := range gb.ExperimentIDs() {
		if !strings.Contains(out, id) {
			t.Errorf("error does not offer registered id %q:\n%s", id, out)
		}
	}
}

func TestScenarioRejectsFigureFlags(t *testing.T) {
	out, err := runCLI(t, "-scenario", "modern", "-quick")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() == 0 {
		t.Fatalf("-scenario -quick did not exit non-zero (err=%v); output:\n%s", err, out)
	}
	if !strings.Contains(out, "-quick") || !strings.Contains(out, "cannot be combined") {
		t.Errorf("clash error does not name the offending flag:\n%s", out)
	}
}

func TestUnknownScenarioExitsNonZero(t *testing.T) {
	out, err := runCLI(t, "-scenario", "/no/such/spec.json")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() == 0 {
		t.Fatalf("missing scenario file did not exit non-zero (err=%v); output:\n%s", err, out)
	}
}

// TestListFlagPrintsRegistryAndScenarios: -list must enumerate every
// registered experiment id with its title and every built-in scenario
// profile, and exit 0.
func TestListFlagPrintsRegistryAndScenarios(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatalf("-list failed: %v\n%s", err, out)
	}
	for _, e := range gb.Experiments() {
		if !strings.Contains(out, e.ID) || !strings.Contains(out, e.Title) {
			t.Errorf("-list is missing experiment %q (%q):\n%s", e.ID, e.Title, out)
		}
	}
	for _, name := range gb.ScenarioNames() {
		if !strings.Contains(out, name) {
			t.Errorf("-list is missing built-in scenario %q:\n%s", name, out)
		}
	}
}

func TestRunOneUsesRegistry(t *testing.T) {
	err := runOne(context.Background(), "nope", gb.ExperimentOptions{}, false, false)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment id") {
		t.Fatalf("runOne(nope) = %v, want unknown-id error", err)
	}
	for _, id := range gb.ExperimentIDs() {
		if _, ok := gb.LookupExperiment(id); !ok {
			t.Errorf("id %q listed but not resolvable", id)
		}
	}
}

// TestCellMetricsInMatrixOrder: -cell-metrics prints its cells in the order
// the spec lists scales and modes, not sorted by scale value or mode name.
func TestCellMetricsInMatrixOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "order.json")
	spec := `{"name":"order","workload":{"kind":"synthetic","iters":4},"scales":[16,8],"modes":["NORM","GP"],"reps":1}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-scenario", path, "-cell-metrics")
	if err != nil {
		t.Fatalf("-cell-metrics failed: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# cell ") {
			got = append(got, line)
		}
	}
	want := []string{
		"# cell procs=16 mode=NORM rep=0 seed=1000003",
		"# cell procs=16 mode=GP rep=0 seed=1000004",
		"# cell procs=8 mode=NORM rep=0 seed=1000005",
		"# cell procs=8 mode=GP rep=0 seed=1000006",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("cell order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCellMetricsOnJobsScenarioExitsNonZero: a jobs scenario's cells are
// job streams with no one metrics snapshot, so -cell-metrics is refused
// with gb's reason instead of printing a nil snapshot.
func TestCellMetricsOnJobsScenarioExitsNonZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	spec := `{"name":"tiny-jobs","scales":[16],"modes":["GP"],` +
		`"jobs":{"count":2,"meanInterarrivalS":1,"templates":[{"kind":"synthetic","iters":2,"ranks":4}]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-scenario", path, "-cell-metrics")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() == 0 {
		t.Fatalf("-cell-metrics on a jobs scenario did not exit non-zero (err=%v); output:\n%s", err, out)
	}
	if !strings.Contains(out, "WithCellMetrics does not apply") || strings.Contains(out, "panic") {
		t.Errorf("want gb's rejection and no panic:\n%s", out)
	}
}
