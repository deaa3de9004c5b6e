package harness_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	. "repro/internal/paper"
)

// TestFullScaleShapes verifies the paper's headline orderings on
// paper-scale parameters (a subset of scales to stay under ~30 s).
// Skipped with -short.
func TestFullScaleShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape check")
	}
	// Figure 1 shape: aggregate coordination grows superlinearly.
	tbs, err := Fig1(context.Background(), Options{Reps: 1, Scales: []int{16, 64}})
	if err != nil {
		t.Fatal(err)
	}
	tb := tbs[0]
	small := meanCell(t, tb.Rows[0][1])
	large := meanCell(t, tb.Rows[1][1])
	if large < 3*small {
		t.Errorf("Fig1: coordination at 64 (%v) not ≫ at 16 (%v)", large, small)
	}

	// Figure 6a shape at one mid scale: NORM ≫ GP ≥ GP1.
	as, err := Fig6(context.Background(), Options{Reps: 1, Scales: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	a := as[0]
	gp := meanCell(t, a.Rows[0][1])
	gp1 := meanCell(t, a.Rows[0][2])
	norm := meanCell(t, a.Rows[0][4])
	if norm < 2*gp {
		t.Errorf("Fig6a: NORM (%v) not ≫ GP (%v)", norm, gp)
	}
	if gp1 > gp {
		t.Errorf("Fig6a: GP1 (%v) should be ≤ GP (%v)", gp1, gp)
	}
}

func meanCell(t *testing.T, cell string) float64 {
	t.Helper()
	if i := strings.IndexRune(cell, '±'); i >= 0 {
		cell = cell[:i]
	}
	var v float64
	if _, err := fmt.Sscan(cell, &v); err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}
