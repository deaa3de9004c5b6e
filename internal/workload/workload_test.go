package workload

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runWorkload executes a workload to completion on a quiet cluster with
// both tracers attached (full records for the per-record assertions, the
// streaming matrix for formation equivalence) and returns the world, the
// trace records, and the matrix.
func runWorkload(t *testing.T, wl Workload) (*mpi.World, []trace.Record, *trace.CommMatrix) {
	t.Helper()
	k := sim.NewKernel(1)
	cfg := cluster.Gideon()
	cfg.JitterFrac = 0
	cfg.DaemonEvery = 0
	c := cluster.New(k, wl.Procs(), cfg)
	w := mpi.NewWorld(k, c, wl.Procs())
	rec := &trace.Recorder{}
	m := trace.NewCommMatrix()
	w.Tracer = trace.Tee{rec, m}
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		t.Fatalf("%s: %v", wl.Name(), err)
	}
	return w, rec.Records, m
}

func TestSyntheticRuns(t *testing.T) {
	wl := NewSynthetic(4, 20)
	w, recs, _ := runWorkload(t, wl)
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	for _, r := range w.Ranks {
		if !r.Finished {
			t.Fatalf("rank %d did not finish", r.ID)
		}
	}
}

func TestHPLSmallRunsToCompletion(t *testing.T) {
	wl := NewHPL(1920, 16) // 16 panels, quick
	w, recs, _ := runWorkload(t, wl)
	if len(recs) == 0 {
		t.Fatal("no traffic traced")
	}
	var last sim.Time
	for _, r := range w.Ranks {
		if r.FinishTime > last {
			last = r.FinishTime
		}
	}
	if last <= 0 {
		t.Fatal("zero execution time")
	}
}

func TestHPLGroupingRecoversColumns(t *testing.T) {
	// The paper's Table 1: for HPL on a P×Q grid with row-major mapping,
	// trace analysis groups the process *columns* — Q groups of P ranks
	// in round-robin rank order ({0,4,8,...}, {1,5,9,...}, … for 8×4).
	wl := NewHPL(3840, 32) // 8×4 grid, 32 panels
	_, recs, _ := runWorkload(t, wl)
	f := group.FromTrace(recs, 32, wl.P)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Groups) != wl.Q {
		t.Fatalf("groups = %d, want Q=%d:\n%s", len(f.Groups), wl.Q, f.String())
	}
	for q := 0; q < wl.Q; q++ {
		want := wl.colGroup(q)
		got := f.Members(want[0])
		if len(got) != len(want) {
			t.Fatalf("group of rank %d = %v, want %v", want[0], got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group of rank %d = %v, want %v", want[0], got, want)
			}
		}
	}
}

func TestHPLColumnTrafficDominates(t *testing.T) {
	wl := NewHPL(3840, 32)
	_, recs, _ := runWorkload(t, wl)
	var colBytes, rowBytes int64
	for _, r := range recs {
		if r.Deliver {
			continue
		}
		srcP, srcQ := r.Src/wl.Q, r.Src%wl.Q
		dstP, dstQ := r.Dst/wl.Q, r.Dst%wl.Q
		switch {
		case srcQ == dstQ && srcP != dstP:
			colBytes += r.Bytes
		case srcP == dstP && srcQ != dstQ:
			rowBytes += r.Bytes
		}
	}
	if colBytes <= rowBytes {
		t.Errorf("column traffic (%d) should dominate row traffic (%d)", colBytes, rowBytes)
	}
}

func TestHPLImageBytesShrinkWithScale(t *testing.T) {
	big := NewHPL(20000, 16).ImageBytes(0)
	small := NewHPL(20000, 128).ImageBytes(0)
	if small >= big {
		t.Errorf("image at 128 (%d) should be below image at 16 (%d)", small, big)
	}
	if small <= RuntimeOverheadBytes {
		t.Errorf("image = %d, must exceed runtime overhead", small)
	}
}

func TestHPLRejectsBadProcCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for nprocs not multiple of 8")
		}
	}()
	NewHPL(1000, 12)
}

func TestHPLColumnFormationGroups(t *testing.T) {
	wl := NewHPL(20000, 32)
	var groups [][]int
	for q := 0; q < wl.Q; q++ {
		groups = append(groups, wl.colGroup(q))
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Table 1, group 1: ranks 0, 4, 8, ..., 28.
	for i, r := range groups[0] {
		if r != i*4 {
			t.Errorf("group0[%d] = %d, want %d", i, r, i*4)
		}
	}
}

func TestCGRunsSquareAndRectangularGrids(t *testing.T) {
	for _, n := range []int{16, 32} {
		wl := CGClassC(n)
		wl.NIter = 3 // keep the test fast
		wl.NA = 15000
		w, recs, _ := runWorkload(t, wl)
		rows, cols := wl.rows, wl.cols
		if rows*cols != n {
			t.Fatalf("grid %dx%d != %d", rows, cols, n)
		}
		if len(recs) == 0 {
			t.Fatal("no traffic")
		}
		for _, r := range w.Ranks {
			if !r.Finished {
				t.Fatalf("n=%d: rank %d stuck", n, r.ID)
			}
		}
	}
}

func TestCGGridLayoutMatchesNPB(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 32: {4, 8}, 64: {8, 8}, 128: {8, 16}}
	for n, want := range cases {
		wl := CGClassC(n)
		rows, cols := wl.rows, wl.cols
		if rows != want[0] || cols != want[1] {
			t.Errorf("n=%d: grid %dx%d, want %dx%d", n, rows, cols, want[0], want[1])
		}
	}
}

func TestCGRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-power-of-two nprocs")
		}
	}()
	CGClassC(24)
}

func TestCGMessagesAreContinuous(t *testing.T) {
	// CG "exhibits non-stop message transfers": the longest silent span
	// between deliveries must be a small fraction of the execution.
	wl := CGClassC(16)
	wl.NIter = 5
	wl.NA = 15000
	w, recs, _ := runWorkload(t, wl)
	var finish sim.Time
	for _, r := range w.Ranks {
		if r.FinishTime > finish {
			finish = r.FinishTime
		}
	}
	var prev sim.Time
	var maxGap sim.Time
	for _, rec := range recs {
		if !rec.Deliver {
			continue
		}
		if g := rec.T - prev; g > maxGap {
			maxGap = g
		}
		prev = rec.T
	}
	if maxGap > finish/4 {
		t.Errorf("max silent gap %v out of %v execution — CG should message continuously", maxGap, finish)
	}
}

func TestSPRunsOnSquareGrids(t *testing.T) {
	for _, n := range []int{9, 16} {
		wl := SPClassC(n)
		wl.NIter = 8
		wl.Problem = 36
		w, recs, _ := runWorkload(t, wl)
		if len(recs) == 0 {
			t.Fatal("no traffic")
		}
		for _, r := range w.Ranks {
			if !r.Finished {
				t.Fatalf("n=%d: rank %d stuck", n, r.ID)
			}
		}
	}
}

func TestSPRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-square nprocs")
		}
	}()
	SPClassC(60)
}

func TestSPRowTrafficDominates(t *testing.T) {
	wl := SPClassC(16)
	wl.NIter = 8
	wl.Problem = 36
	_, recs, _ := runWorkload(t, wl)
	sq := wl.sq
	var rowB, colB int64
	for _, r := range recs {
		if r.Deliver {
			continue
		}
		if r.Src/sq == r.Dst/sq {
			rowB += r.Bytes
		} else if r.Src%sq == r.Dst%sq {
			colB += r.Bytes
		}
	}
	if rowB <= colB {
		t.Errorf("row traffic (%d) should dominate column traffic (%d)", rowB, colB)
	}
}

func TestSPGroupingRecoversRows(t *testing.T) {
	wl := SPClassC(16)
	wl.NIter = 8
	wl.Problem = 36
	_, recs, _ := runWorkload(t, wl)
	sq := wl.sq
	f := group.FromTrace(recs, 16, sq)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rank 0's group should be its grid row {0,1,2,3}.
	got := f.Members(0)
	if len(got) != sq {
		t.Fatalf("group of 0 = %v, want the grid row", got)
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("group of 0 = %v, want [0 1 2 3]", got)
		}
	}
}

func TestNamesDescriptive(t *testing.T) {
	for _, wl := range []Workload{
		NewHPL(20000, 16),
		CGClassC(16),
		SPClassC(16),
		NewSynthetic(4, 10),
	} {
		if wl.Name() == "" || !strings.Contains(wl.Name(), "(") {
			t.Errorf("unhelpful name %q", wl.Name())
		}
		if wl.ImageBytes(0) <= 0 {
			t.Errorf("%s: non-positive image", wl.Name())
		}
	}
}

// TestMatrixMatchesTraceFormation is the CommMatrix equivalence guarantee
// on real workloads: the Algorithm 2 formation derived from the streaming
// matrix must be identical to the one derived from the full record trace,
// and the matrix totals must match the records it folded in.
func TestMatrixMatchesTraceFormation(t *testing.T) {
	cg := CGClassC(16)
	cg.NIter = 3
	cg.NA = 15000
	sp := SPClassC(16)
	sp.NIter = 8
	sp.Problem = 36
	for _, wl := range []Workload{
		NewSynthetic(8, 20),
		NewHPL(3840, 32),
		cg,
		sp,
	} {
		_, recs, m := runWorkload(t, wl)
		n := wl.Procs()
		fm, ft := group.FromMatrix(m, n, 0), group.FromTrace(recs, n, 0)
		if got, want := fm.String(), ft.String(); got != want {
			t.Errorf("%s: matrix formation %q, trace formation %q", wl.Name(), got, want)
		}
		var sends int
		var bytes int64
		for _, r := range recs {
			if !r.Deliver && r.Src != r.Dst {
				sends++
				bytes += r.Bytes
			}
		}
		if m.Sends() != sends || m.TotalBytes() != bytes {
			t.Errorf("%s: matrix folded %d sends/%d bytes, trace has %d/%d",
				wl.Name(), m.Sends(), m.TotalBytes(), sends, bytes)
		}
	}
}
