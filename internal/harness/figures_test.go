package harness_test

// The paper's figures (internal/paper) are the harness's end-to-end
// workload: these tests drive each one through the run path at reduced
// sizes and check its table's shape.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	. "repro/internal/paper"
)

// TestOptionsDefaults: Quick defaults to two repetitions, which the table
// shows as a spread; explicit Reps and Scales override the defaults.
func TestOptionsDefaults(t *testing.T) {
	ctx := context.Background()
	twos, err := Fig1(ctx, Options{Quick: true, Scales: []int{24}})
	if err != nil {
		t.Fatal(err)
	}
	two := twos[0]
	if len(two.Rows) != 1 || two.Rows[0][0] != "24" {
		t.Fatalf("explicit scales ignored:\n%s", two)
	}
	if !strings.Contains(two.Rows[0][1], "±") {
		t.Errorf("quick default of 2 reps shows no spread:\n%s", two)
	}
	ones, err := Fig1(ctx, Options{Quick: true, Reps: 1, Scales: []int{24}})
	if err != nil {
		t.Fatal(err)
	}
	one := ones[0]
	if strings.Contains(one.Rows[0][1], "±") {
		t.Errorf("explicit Reps 1 still shows a spread:\n%s", one)
	}
}

func TestFig1Quick(t *testing.T) {
	tbs, err := Fig1(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	tb := tbs[0]
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "procs") {
		t.Error("missing header")
	}
}

func TestTable1QuickRecoversColumns(t *testing.T) {
	tbs, err := Table1(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tbs[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("groups = %d, want 4:\n%s", len(tb.Rows), tb)
	}
	// Table 1's first group is the round-robin column {0 4 8 ... 28}.
	if !strings.Contains(tb.Rows[0][1], "[0 4 8") {
		t.Errorf("group 1 = %s, want round-robin ranks", tb.Rows[0][1])
	}
}

func TestFig5QuickShapes(t *testing.T) {
	tabs, err := Fig5(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tabs[0], tabs[1]
	if len(a.Rows) != 1 || len(b.Rows) != 1 {
		t.Fatalf("rows: %d/%d", len(a.Rows), len(b.Rows))
	}
	// NORM's diff from itself must be ~0.
	if b.Rows[0][4] != "0.00" && b.Rows[0][4] != "-0.00" {
		t.Errorf("NORM diff = %s", b.Rows[0][4])
	}
}

func TestFig6QuickShapes(t *testing.T) {
	tabs, err := Fig6(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tabs[0], tabs[1]
	if len(a.Rows) == 0 || len(b.Rows) == 0 {
		t.Fatal("empty tables")
	}
}

func TestFig7Fig8QuickShapes(t *testing.T) {
	o := Options{Quick: true, Reps: 1, Scales: []int{16}}
	t7s, err := Fig7(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t7 := t7s[0]
	t8s, err := Fig8(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t8 := t8s[0]
	if len(t7.Rows) != 1 || len(t8.Rows) != 1 {
		t.Fatalf("rows: %d/%d", len(t7.Rows), len(t8.Rows))
	}
}

func TestFig9QuickHasAllModes(t *testing.T) {
	tbs, err := Fig9(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	tb := tbs[0]
	// One row per mode per boundary scale; single scale → boundary twice.
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8:\n%s", len(tb.Rows), tb)
	}
}

func TestFig10Quick(t *testing.T) {
	tbs, err := Fig10(context.Background(), Options{Quick: true, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tbs[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb)
	}
	// Interval 0 row must report zero checkpoints for both modes.
	if tb.Rows[0][2] != "0.00" || tb.Rows[0][4] != "0.00" {
		t.Errorf("interval-0 row has checkpoints: %v", tb.Rows[0])
	}
}

func TestFig11Fig12Quick(t *testing.T) {
	tabs, err := Fig11(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tabs[0], tabs[1]
	if len(a.Rows) != 1 || len(b.Rows) != 1 {
		t.Fatal("CG tables wrong size")
	}
	tabs, err = Fig12(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	a, b = tabs[0], tabs[1]
	if len(a.Rows) != 1 || len(b.Rows) != 1 {
		t.Fatal("SP tables wrong size")
	}
}

func TestFig13Fig14Quick(t *testing.T) {
	o := Options{Quick: true, Reps: 1, Scales: []int{16}}
	t13s, err := Fig13(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t13 := t13s[0]
	t14s, err := Fig14(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t14 := t14s[0]
	if len(t13.Rows) != 1 || len(t14.Rows) != 1 {
		t.Fatal("remote-suite tables wrong size")
	}
	// The paper's fairness rule caps GP at VCL's checkpoint count; GP may
	// complete fewer if its (shorter) execution ends first.
	gp, _ := strconv.ParseFloat(t13.Rows[0][2], 64)
	vcl, _ := strconv.ParseFloat(t13.Rows[0][4], 64)
	if gp > vcl {
		t.Errorf("GP ckpts %v exceed VCL ckpts %v", gp, vcl)
	}
}

func TestFig2Quick(t *testing.T) {
	r, err := Fig2(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Table.Rows))
	}
	if len(r.Timelines) == 0 {
		t.Error("no timelines rendered")
	}
}
