package scenario

import (
	"context"
	"strings"
	"testing"
)

// fastSpec is a small sweep that exercises the full engine path — two
// scales, two modes, an armed failure process — in well under a second.
const fastSpec = `{
	"name": "fast",
	"workload": {"kind": "synthetic", "iters": 120},
	"scales": [4, 8],
	"modes": ["GP1", "NORM"],
	"checkpoint": {"intervalS": 2},
	"failures": {"process": "poisson", "mtbfS": 3},
	"reps": 2,
	"seed": 7
}`

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	serial, err := parse(t, fastSpec).RunObserved(context.Background(), 1, Instrument{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parse(t, fastSpec).RunObserved(context.Background(), 4, Instrument{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("worker count changed the table:\n%s\nvs\n%s", serial, parallel)
	}
	again, err := parse(t, fastSpec).RunObserved(context.Background(), 4, Instrument{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.String() != again.String() {
		t.Errorf("same spec diverged between runs:\n%s\nvs\n%s", parallel, again)
	}
}

func TestRunFailureColumnsAndRows(t *testing.T) {
	tb, err := parse(t, fastSpec).RunObserved(context.Background(), 0, Instrument{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"procs", "mode", "exec_s", "fails", "lost_group_s", "lost_global_s", "saved_s"} {
		found := false
		for _, c := range tb.Columns {
			if c == col {
				found = true
			}
		}
		if !found {
			t.Errorf("table missing column %q: %v", col, tb.Columns)
		}
	}
	if got, want := len(tb.Rows), 2*2; got != want {
		t.Errorf("rows = %d, want scales × modes = %d", got, want)
	}
	// Row order is the spec's: scales outer, modes inner.
	if tb.Rows[0][0] != "4" || tb.Rows[0][1] != "GP1" || tb.Rows[1][1] != "NORM" {
		t.Errorf("unexpected row order: %v", tb.Rows)
	}
	out := tb.String()
	if !strings.Contains(out, "poisson(mtbf=3s)") {
		t.Errorf("table note does not name the failure process:\n%s", out)
	}
}

func TestRunWithoutFailuresOmitsFailureColumns(t *testing.T) {
	src := `{
		"workload": {"kind": "synthetic", "iters": 60},
		"scales": [4],
		"modes": ["NORM"],
		"checkpoint": {"intervalS": 2},
		"reps": 1
	}`
	tb, err := parse(t, src).RunObserved(context.Background(), 0, Instrument{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tb.Columns {
		if c == "fails" || strings.HasPrefix(c, "lost_") {
			t.Errorf("failure column %q present without a failure spec", c)
		}
	}
}
