package workload

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// CG is the NPB CG (conjugate gradient) skeleton. Ranks form an
// nprows×npcols grid (NPB's layout: npcols = 2^⌈lg n / 2⌉, nprows =
// n/npcols; rank = row·npcols + col). Each of NITER outer iterations runs
// 25 inner CG iterations; each inner iteration does a sparse mat-vec whose
// partial sums are reduced along the process row (log₂ npcols
// exchange-halving steps), a transpose exchange with the rank's mirror
// position, and two dot-product reductions.
//
// CG "exhibits non-stop message transfers throughout the execution" (paper
// Section 2.2): the application cannot progress when no message flows,
// which is what makes it the stress test for non-blocking checkpoints.
type CG struct {
	NA     int // matrix order (class C: 150000)
	NonZer int // nonzeros per row parameter (class C: 15)
	NIter  int // outer iterations (class C: 75)
	NProcs int

	// InnerBatch groups the 25 inner iterations into supersteps of this
	// many iterations: message sizes scale up by the batch, counts scale
	// down (event-count control; volumes preserved). 1 = fully faithful.
	InnerBatch int

	// WorkScale multiplies the per-iteration computation to model the
	// memory-bound effective flop rate of sparse mat-vec on the paper's
	// P4 nodes (sustained sparse throughput is ~10× below dense).
	WorkScale float64

	rows, cols int
}

// CGClassC returns the paper's CG Class C configuration for n ranks
// (n ∈ {16, 32, 64, 128} in the paper).
func CGClassC(nprocs int) *CG {
	c := &CG{
		NA: 150000, NonZer: 15, NIter: 75, NProcs: nprocs,
		InnerBatch: 5, WorkScale: 10,
	}
	c.layout()
	return c
}

// layout computes the NPB process grid.
func (c *CG) layout() {
	lg := int(math.Round(math.Log2(float64(c.NProcs))))
	if 1<<lg != c.NProcs {
		panic(fmt.Sprintf("workload: CG requires a power-of-two nprocs, got %d", c.NProcs))
	}
	c.cols = 1 << ((lg + 1) / 2)
	c.rows = c.NProcs / c.cols
}

// Name implements Workload. An InnerBatch other than CGClassC's 5 shows as
// b=N, so runs at different batches never share a tracing pass.
func (c *CG) Name() string {
	if c.InnerBatch != 5 {
		return fmt.Sprintf("CG(na=%d,it=%d,b=%d,%dx%d)", c.NA, c.NIter, c.InnerBatch, c.rows, c.cols)
	}
	return fmt.Sprintf("CG(na=%d,it=%d,%dx%d)", c.NA, c.NIter, c.rows, c.cols)
}

// Procs implements Workload.
func (c *CG) Procs() int { return c.NProcs }

// ImageBytes implements Workload: the rank's share of the sparse matrix
// (values + indices ≈ 12 bytes/nonzero) and vectors, plus runtime overhead.
func (c *CG) ImageBytes(rank int) int64 {
	nnz := int64(c.NA) * int64(c.NonZer) * int64(c.NonZer)
	data := nnz*12 + int64(c.NA)*8*6
	return data/int64(c.NProcs) + RuntimeOverheadBytes
}

// Body implements Workload.
func (c *CG) Body(r *mpi.Rank) {
	row := r.ID / c.cols
	col := r.ID % c.cols
	rowGroup := make([]int, c.cols)
	for j := 0; j < c.cols; j++ {
		rowGroup[j] = row*c.cols + j
	}
	// Transpose-exchange partner: NPB CG's exch_proc, an involution for
	// both square grids and the npcols = 2·nprows case.
	var partner int
	if c.cols == c.rows {
		partner = (r.ID%c.rows)*c.rows + r.ID/c.rows
	} else {
		m, bit := r.ID/2, r.ID%2
		partner = 2*((m%c.rows)*c.rows+m/c.rows) + bit
	}

	batch := c.InnerBatch
	if batch < 1 {
		batch = 1
	}
	const innerPerOuter = 25
	steps := innerPerOuter / batch
	if steps < 1 {
		steps = 1
	}

	// Per-inner-iteration byte volumes.
	exchBytes := int64(c.NA/c.rows) * 8 // row-exchange of partial sums
	tranBytes := int64(c.NA/c.cols) * 8 // transpose exchange
	// Per-inner-iteration computation (mat-vec dominates), scaled for
	// memory-bound sparse throughput.
	nnz := float64(c.NA) * float64(c.NonZer) * float64(c.NonZer)
	flopsPerInner := c.WorkScale * 2 * nnz / float64(c.NProcs)

	all := make([]int, c.NProcs)
	for i := range all {
		all[i] = i
	}

	op := 0
	for outer := 0; outer < c.NIter; outer++ {
		for s := 0; s < steps; s++ {
			b := int64(batch)
			// Sparse mat-vec partial-sum reduction along the row:
			// log2(cols) exchange-halving steps with row partners.
			for dist := 1; dist < c.cols; dist *= 2 {
				peer := row*c.cols + (col^dist)%c.cols
				r.Sendrecv(peer, tagExch+op, exchBytes*b, peer, tagExch+op)
				op++
			}
			// Transpose exchange.
			if partner != r.ID {
				r.Sendrecv(partner, tagTran+op, tranBytes*b, partner, tagTran+op)
			}
			// Two dot products along the row.
			r.Allreduce(rowGroup, opDot+2*op, 8*b)
			r.Allreduce(rowGroup, opDot2+2*op, 8*b)
			// Computation for the batched inner iterations.
			r.Compute(flopsPerInner * float64(batch))
			op++
		}
		// Residual norm across all ranks once per outer iteration.
		r.Allreduce(all, opNorm+2*outer, 16)
	}
}

// Tag bases for CG.
const (
	tagExch = 1000
	tagTran = 500_000

	opDot  = 2_000_000
	opDot2 = 6_000_000
	opNorm = 10_000_000
)
