//go:build !race

package harness_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	. "repro/internal/paper"
	"repro/internal/stats"
)

// TestHeadlineClaims turns EXPERIMENTS.md's headline table into assertions,
// one per row, at paper problem sizes on each figure's smallest and largest
// scale. A claim is checked at the level the paper makes it — the mean over
// repetitions, or the sum over the sweep — because single per-scale
// readings flip with the seed.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper problem sizes")
	}
	ctx := context.Background()
	run := func(t *testing.T, id string, o Options) []figTable {
		t.Helper()
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		tables, err := e.Run(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]figTable, len(tables))
		for i, tb := range tables {
			out[i] = figTable{t, tb}
		}
		return out
	}
	ends := func(lo, hi int) Options { return Options{Reps: 2, Scales: []int{lo, hi}} }

	t.Run("fig1 coordination grows superlinearly", func(t *testing.T) {
		f := run(t, "fig1", ends(16, 64))[0]
		c := f.means("coord_total_s")
		f.check(c[1] > 4*c[0], "coordination at 64 procs (%.1fs) is not more than 4× that at 16 (%.1fs)", c[1], c[0])
	})
	t.Run("fig2 VCL stalls the application at scale", func(t *testing.T) {
		f := run(t, "fig2", ends(32, 128))[0]
		share, gap := f.means("ckpt_share_of_exec"), f.means("gap_fraction")
		f.check(share[1] > 0.5 && share[1] > share[0],
			"checkpointing share of execution %.2f → %.2f: not above half and growing", share[0], share[1])
		f.check(gap[1] > 0.5, "gap fraction at 128 procs %.2f, want most of each window stalled", gap[1])
	})
	t.Run("table1 groups are HPL's process columns", func(t *testing.T) {
		f := run(t, "table1", Options{})[0]
		f.check(len(f.Rows) == 4, "%d groups, want 4", len(f.Rows))
		for i, row := range f.Rows {
			var want []int
			for r := i; r < 32; r += 4 {
				want = append(want, r)
			}
			f.check(row[1] == fmt.Sprint(want), "group %d = %s, want %v", i+1, row[1], want)
		}
	})

	// GP's edge over NORM in Figure 5b is a few seconds against per-run
	// noise of as much: at two repetitions its reading flips with the
	// seed, so the HPL sweep behind Figures 5–9 runs the paper's five.
	hpl := Options{Reps: 5, Scales: []int{16, 128}}
	t.Run("fig5 execution times close, GP's edge grows", func(t *testing.T) {
		tabs := run(t, "fig5", hpl)
		a, b := tabs[0], tabs[1]
		norm := a.means("NORM_exec_s")
		for _, m := range []string{"GP", "GP1", "GP4"} {
			for i, x := range a.means(m + "_exec_s") {
				f := (x - norm[i]) / norm[i]
				a.check(f > -0.15 && f < 0.15, "%s execution %.1fs is not within 15%% of NORM's %.1fs", m, x, norm[i])
			}
		}
		d := b.means("GP_diff_s")
		b.check(d[1] < 0 && d[1] < d[0], "GP−NORM %.2fs → %.2fs: GP's edge does not grow with scale", d[0], d[1])
	})
	t.Run("fig6a GP and GP1 lowest, NORM explodes", func(t *testing.T) {
		a := run(t, "fig6", hpl)[0]
		gp, gp1, gp4, norm := a.means("GP_ckpt_s"), a.means("GP1_ckpt_s"), a.means("GP4_ckpt_s"), a.means("NORM_ckpt_s")
		a.check(gp[1] < gp4[1] && gp1[1] < gp4[1] && gp4[1] < norm[1],
			"at 128 procs GP %.0fs, GP1 %.0fs, GP4 %.0fs, NORM %.0fs: want GP, GP1 < GP4 < NORM", gp[1], gp1[1], gp4[1], norm[1])
		a.check(norm[1]/norm[0] > 2*gp[1]/gp[0],
			"NORM grows %.1f× from 16 to 128 procs, GP %.1f×: NORM does not explode", norm[1]/norm[0], gp[1]/gp[0])
	})
	t.Run("fig6b NORM restarts fastest, GP slightly above", func(t *testing.T) {
		b := run(t, "fig6", hpl)[1]
		norm := sum(b.means("NORM_restart_s"))
		for _, m := range []string{"GP", "GP1", "GP4"} {
			x := sum(b.means(m + "_restart_s"))
			b.check(norm < x, "summed over the sweep NORM restarts in %.1fs, %s in %.1fs", norm, m, x)
		}
		gp := sum(b.means("GP_restart_s"))
		b.check(gp < 1.5*norm, "summed over the sweep GP restarts in %.1fs, not slightly above NORM's %.1fs", gp, norm)
	})
	t.Run("fig7-8 GP1 resends most", func(t *testing.T) {
		for _, c := range []struct{ id, unit string }{{"fig7", "resend_KB"}, {"fig8", "ops"}} {
			f := run(t, c.id, hpl)[0]
			gp1 := sum(f.means("GP1_" + c.unit))
			for _, m := range []string{"GP", "GP4"} {
				x := sum(f.means(m + "_" + c.unit))
				f.check(gp1 > x, "summed over the sweep GP1 %s %.1f, %s %.1f", c.unit, gp1, m, x)
			}
		}
	})
	t.Run("fig9 NORM's coordination dominates at scale", func(t *testing.T) {
		f := run(t, "fig9", hpl)[0]
		// Rows: each mode at the smallest scale, then each at the largest.
		var gp, norm []float64
		for _, row := range f.Rows[len(f.Rows)/2:] {
			v := []float64{f.num(row[3]), f.num(row[4])} // coordination, checkpoint
			switch row[1] {
			case "GP":
				gp = v
			case "NORM":
				norm = v
			}
		}
		f.check(norm[0] > 5*gp[0] && norm[0] > norm[1],
			"at 128 procs NORM coordination %.2fs vs GP %.2fs, write stage %.2fs", norm[0], gp[0], norm[1])
	})
	t.Run("fig10 GP wins at short intervals, NORM catches up", func(t *testing.T) {
		f := run(t, "fig10", Options{Reps: 1})[0]
		iv, gp, norm := f.means("interval_s"), f.means("GP_exec_s"), f.means("NORM_exec_s")
		first, last := 1, len(iv)-1 // row 0 takes no checkpoints
		f.check(gp[first] < norm[first], "at %gs GP %.0fs is not faster than NORM %.0fs", iv[first], gp[first], norm[first])
		f.check(norm[last]-gp[last] < norm[first]-gp[first],
			"NORM−GP %.0fs at %gs does not shrink to %.0fs at %gs", norm[first]-gp[first], iv[first], norm[last]-gp[last], iv[last])
	})
	t.Run("fig11-12 GP checkpoints far below NORM, near GP1", func(t *testing.T) {
		for _, c := range []struct {
			id     string
			lo, hi int
		}{{"fig11", 16, 128}, {"fig12", 64, 121}} {
			a := run(t, c.id, ends(c.lo, c.hi))[0]
			gp, gp1, norm := a.means("GP_ckpt_s"), a.means("GP1_ckpt_s"), a.means("NORM_ckpt_s")
			a.check(norm[1] > 3*gp[1] && gp[1] < 3*gp1[1],
				"at %d procs GP %.0fs, GP1 %.0fs, NORM %.0fs: want GP ≪ NORM and comparable to GP1", c.hi, gp[1], gp1[1], norm[1])
		}
	})
	remote := ends(16, 128)
	t.Run("fig13 GP's edge over VCL grows, at matched checkpoint counts", func(t *testing.T) {
		f := run(t, "fig13", remote)[0]
		gp, vcl := f.means("GP_exec_s"), f.means("VCL_exec_s")
		f.check(vcl[1]-gp[1] > vcl[0]-gp[0] && gp[1] < vcl[1],
			"VCL−GP %.0fs at 16 procs → %.0fs at 128: GP's edge does not grow", vcl[0]-gp[0], vcl[1]-gp[1])
		gpc, vclc := f.means("GP_ckpts"), f.means("VCL_ckpts")
		for i := range gpc {
			f.check(gpc[i] == vclc[i], "row %d: GP took %.2f checkpoints, VCL %.2f", i, gpc[i], vclc[i])
		}
	})
	t.Run("fig14 GP's checkpoint time flat, VCL's climbs", func(t *testing.T) {
		f := run(t, "fig14", remote)[0]
		gp, vcl := f.means("GP_s"), f.means("VCL_s")
		f.check(vcl[1] > 2*vcl[0] && gp[1] <= 1.5*gp[0] && gp[1] < vcl[1],
			"per-checkpoint GP %.2f → %.2fs, VCL %.2f → %.2fs", gp[0], gp[1], vcl[0], vcl[1])
	})
}

// figTable is one rendered figure table under test.
type figTable struct {
	t *testing.T
	*stats.Table
}

// check fails the test with the table printed when a claim does not hold.
func (f figTable) check(ok bool, format string, args ...any) {
	f.t.Helper()
	if !ok {
		f.t.Errorf("%s: %s\n%s", f.Title, fmt.Sprintf(format, args...), f.Table)
	}
}

// means returns the named column's per-row means.
func (f figTable) means(col string) []float64 {
	f.t.Helper()
	for j, c := range f.Columns {
		if c == col {
			out := make([]float64, len(f.Rows))
			for i, row := range f.Rows {
				out[i] = f.num(row[j])
			}
			return out
		}
	}
	f.t.Fatalf("%s: no column %q", f.Title, col)
	return nil
}

// num parses a "mean±σ" or plain cell's mean.
func (f figTable) num(cell string) float64 {
	f.t.Helper()
	mean, _, _ := strings.Cut(cell, "±")
	v, err := strconv.ParseFloat(strings.TrimSpace(mean), 64)
	if err != nil {
		f.t.Fatalf("%s: cell %q: %v", f.Title, cell, err)
	}
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
