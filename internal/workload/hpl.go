package workload

import (
	"fmt"

	"repro/internal/mpi"
)

// HPL is the High Performance Linpack skeleton: LU factorization with
// partial pivoting of an N×N matrix in NB-wide panels on a P×Q process
// grid, rank = p·Q + q in row-major order (the paper's mapping).
//
// Per panel k (trailing matrix of size m = N − k·NB):
//
//   - panel factorization in the owning process column: pivot search and
//     row exchanges — modelled as PivotRounds column allreduces — plus the
//     panel's share of factorization flops;
//   - panel broadcast along each process row (increasing-ring, as HPL's
//     default bcast variants) of the local panel block;
//   - row swaps + U broadcast along each process column (ring) — in HPL's
//     long swap variant this moves roughly twice the panel volume;
//   - trailing-submatrix update: 2·(m/P)·(m/Q)·NB flops per rank.
//
// The column traffic (U broadcast + swaps every panel, plus pivoting)
// dominates the row traffic, which is why trace-driven grouping recovers
// the process *columns* — exactly the paper's Table 1.
type HPL struct {
	N  int // problem size (paper: 20000 and 56000)
	NB int // block size (paper: 120)
	P  int // process rows (paper fixes P=8)
	Q  int // process columns

	// PivotRounds batches the NB pivot allreduces of one panel
	// factorization into this many rounds (event-count control; the
	// exchanged volume is preserved).
	PivotRounds int
}

// NewHPL builds the paper's HPL configuration: P is fixed at 8 and Q =
// nprocs/8 (nprocs must be a multiple of 8), N=20000, NB=120.
func NewHPL(n, nprocs int) *HPL {
	if nprocs%8 != 0 {
		panic(fmt.Sprintf("workload: HPL nprocs %d not a multiple of P=8", nprocs))
	}
	return &HPL{N: n, NB: 120, P: 8, Q: nprocs / 8, PivotRounds: 4}
}

// Name implements Workload.
func (h *HPL) Name() string {
	return fmt.Sprintf("HPL(N=%d,NB=%d,%dx%d)", h.N, h.NB, h.P, h.Q)
}

// Procs implements Workload.
func (h *HPL) Procs() int { return h.P * h.Q }

// ImageBytes implements Workload: the rank's share of the N×N float64
// matrix plus runtime overhead.
func (h *HPL) ImageBytes(rank int) int64 {
	matrix := int64(h.N) * int64(h.N) * 8
	return matrix/int64(h.Procs()) + RuntimeOverheadBytes
}

// grid coordinates and communication groups for a rank.
func (h *HPL) coords(rank int) (p, q int) { return rank / h.Q, rank % h.Q }

func (h *HPL) rowGroup(p int) []int {
	g := make([]int, h.Q)
	for q := 0; q < h.Q; q++ {
		g[q] = p*h.Q + q
	}
	return g
}

func (h *HPL) colGroup(q int) []int {
	g := make([]int, h.P)
	for p := 0; p < h.P; p++ {
		g[p] = p*h.Q + q
	}
	return g
}

// Body implements Workload.
func (h *HPL) Body(r *mpi.Rank) {
	myP, myQ := h.coords(r.ID)
	row := h.rowGroup(myP)
	col := h.colGroup(myQ)
	panels := h.N / h.NB
	if h.PivotRounds < 1 {
		h.PivotRounds = 1
	}

	for k := 0; k < panels; k++ {
		m := h.N - k*h.NB // trailing matrix dimension
		if m <= 0 {
			break
		}
		localRows := m / h.P
		localCols := m / h.Q
		ownerQ := k % h.Q
		ownerP := k % h.P

		// 1. Panel factorization in the owning column: pivot
		// allreduces along the column plus the factorization flops.
		if myQ == ownerQ && localRows > 0 {
			pivotBytes := int64(16 * h.NB / h.PivotRounds)
			for round := 0; round < h.PivotRounds; round++ {
				r.Allreduce(col, opPivot+2*(k*h.PivotRounds+round), pivotBytes)
			}
			r.Compute(float64(localRows) * float64(h.NB) * float64(h.NB))
		}

		// 2. Panel broadcast along the row (increasing ring, streamed
		// in block-column chunks as HPL does).
		panelBytes := int64(localRows) * int64(h.NB) * 8
		if panelBytes > 0 && h.Q > 1 {
			r.RingBcastPipelined(myP*h.Q+ownerQ, row, opRowBcast+k, panelBytes, 6)
		}

		// 3. Row swaps + U broadcast along the column (ring): roughly
		// twice the panel volume crosses each column link.
		uBytes := int64(localCols) * int64(h.NB) * 8 * 2
		if uBytes > 0 && h.P > 1 {
			r.RingBcastPipelined(ownerP*h.Q+myQ, col, opColBcast+k, uBytes, 6)
		}

		// 4. Trailing-submatrix update.
		r.Compute(2 * float64(localRows) * float64(localCols) * float64(h.NB))
	}
	// Final residual check: one small global allreduce.
	all := make([]int, h.Procs())
	for i := range all {
		all[i] = i
	}
	r.Allreduce(all, opResidual, 64)
}

// Collective op-tag bases for HPL (kept distinct per call site; see
// mpi.Rank collectives).
const (
	opPivot    = 10_000
	opRowBcast = 400_000
	opColBcast = 800_000
	opResidual = 1_200_000
)
