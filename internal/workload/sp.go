package workload

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// SP is the NPB SP (scalar pentadiagonal) skeleton: an ADI solver on a
// √n×√n process grid using NPB's multi-partition decomposition (which is
// why SP requires a square number of processes — the paper runs 64, 81,
// 100 and 121).
//
// Each iteration exchanges cell faces with the four grid neighbours
// (copy_faces) and then performs the x-, y- and z-sweeps; each sweep
// pipelines boundary systems across the grid — along rows for x and z,
// along columns for y. Row traffic is therefore ~2× column traffic, so
// trace-driven grouping recovers the grid rows (size √n, matching the
// paper's default maximum group size).
type SP struct {
	Problem int // grid points per dimension (class C: 162)
	NIter   int // iterations (class C: 400)
	NProcs  int

	// IterBatch groups iterations into supersteps (volumes preserved).
	IterBatch int

	// WorkScale models memory-bound effective throughput.
	WorkScale float64

	sq int
}

// SPClassC returns the paper's SP Class C configuration for n ranks
// (n ∈ {64, 81, 100, 121}).
func SPClassC(nprocs int) *SP {
	s := &SP{Problem: 162, NIter: 400, NProcs: nprocs, IterBatch: 4, WorkScale: 12}
	s.layout()
	return s
}

func (s *SP) layout() {
	sq := int(math.Round(math.Sqrt(float64(s.NProcs))))
	if sq*sq != s.NProcs {
		panic(fmt.Sprintf("workload: SP requires a square nprocs, got %d", s.NProcs))
	}
	s.sq = sq
}

// Name implements Workload.
func (s *SP) Name() string {
	return fmt.Sprintf("SP(%d^3,it=%d,%dx%d)", s.Problem, s.NIter, s.sq, s.sq)
}

// Procs implements Workload.
func (s *SP) Procs() int { return s.NProcs }

// ImageBytes implements Workload: the rank's share of ~15 solution/RHS
// arrays of Problem³ doubles, plus runtime overhead.
func (s *SP) ImageBytes(rank int) int64 {
	pts := int64(s.Problem) * int64(s.Problem) * int64(s.Problem)
	return pts*15*8/int64(s.NProcs) + RuntimeOverheadBytes
}

// Body implements Workload.
func (s *SP) Body(r *mpi.Rank) {
	sq := s.sq
	row, col := r.ID/sq, r.ID%sq
	east := row*sq + (col+1)%sq
	west := row*sq + (col-1+sq)%sq
	north := ((row+1)%sq)*sq + col
	south := ((row-1+sq)%sq)*sq + col

	batch := s.IterBatch
	if batch < 1 {
		batch = 1
	}
	steps := s.NIter / batch
	if steps < 1 {
		steps = 1
	}

	// Face size: each neighbour exchange moves a cell face of
	// (Problem²/n of the grid cross-section) × 5 variables × 8 bytes,
	// with the multi-partition factor √n of sub-cells per rank.
	face := int64(s.Problem) * int64(s.Problem) / int64(s.NProcs) * 5 * 8 * int64(sq)
	// Sweep pipeline messages: boundary systems of the pentadiagonal
	// solve, a thinner strip than a full face.
	strip := face / 4

	// ≈ 900 flops per grid point per iteration (the ADI sweeps), scaled
	// by WorkScale for memory-bound effective throughput.
	pts := float64(s.Problem) * float64(s.Problem) * float64(s.Problem)
	flopsPerIter := s.WorkScale * 900 * pts / float64(s.NProcs)

	op := 0
	for step := 0; step < steps; step++ {
		b := int64(batch)
		// copy_faces: exchange with the four grid neighbours.
		r.Sendrecv(east, tagFace+op, face*b, west, tagFace+op)
		op++
		r.Sendrecv(north, tagFace+op, face*b, south, tagFace+op)
		op++
		// x-sweep: pipeline along the row (eastward), forward and
		// back-substitution.
		r.Sendrecv(east, tagSweep+op, strip*b, west, tagSweep+op)
		op++
		// y-sweep: pipeline along the column (northward).
		r.Sendrecv(north, tagSweep+op, strip*b, south, tagSweep+op)
		op++
		// z-sweep: multi-partition cycles along the row again.
		r.Sendrecv(east, tagSweep+op, strip*b, west, tagSweep+op)
		op++
		// Computation for the batched iterations.
		r.Compute(flopsPerIter * float64(batch))
	}
}

// Tag bases for SP.
const (
	tagFace  = 100
	tagSweep = 300_000
)
