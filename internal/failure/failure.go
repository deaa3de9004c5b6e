// Package failure models the paper's motivating scenario: "assuming that
// failures only occur in a small region of a large system", a group-based
// checkpoint lets just the affected group roll back while the rest of the
// system keeps its work — whereas a global coordinated checkpoint rolls
// every process back to the last global checkpoint.
//
// An Injector drives a failure Process against a running world and
// evaluates each failure at its instant: the work lost and the recovery
// traffic under group restart versus global restart.
package failure

import "repro/internal/sim"

// Outcome compares group restart against global restart for one failure.
type Outcome struct {
	FailedNode   int // the node that failed
	FailedGroup  int
	FailedRanks  []int
	At           sim.Time
	WorkLossGrp  sim.Time // Σ over failed ranks of (t_fail − t_ckpt)
	WorkLossGlb  sim.Time // Σ over all ranks — what a global restart throws away
	ReplayBytes  int64    // log bytes alive peers must replay to the group
	ReplayPairs  int      // directed (peer → failed rank) replay sessions
	LogHeldBytes int64    // log bytes currently held for the failed ranks
}

// WorkSaved returns the work a group restart preserves compared with a
// global restart — the paper's headline argument for group-based recovery.
func (o Outcome) WorkSaved() sim.Time { return o.WorkLossGlb - o.WorkLossGrp }
