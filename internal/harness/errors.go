package harness

import "errors"

// Sentinel errors for the three ways a run can fail before or instead of
// completing. The public gb facade re-exports them; every error returned by
// Run wraps exactly one of these (or is a *sim.DeadlockError), so callers
// dispatch with errors.Is instead of string matching.
var (
	// ErrBadSpec marks a spec rejected before the simulation started:
	// missing workload, unknown mode, an option combination the engine
	// cannot honor. The message names the offending field.
	ErrBadSpec = errors.New("invalid spec")

	// ErrHorizon marks a run whose application had not finished when the
	// virtual-time horizon was reached — the liveness backstop: a lost
	// delivery under periodic checkpointing starves a receiver without
	// ever draining the event queue, which a deadlock detector alone
	// cannot see.
	ErrHorizon = errors.New("horizon reached before completion")

	// ErrCanceled marks a run stopped because its context was canceled.
	// The kernel parks between events, every unfinished process goroutine
	// is unwound, and partial results are discarded.
	ErrCanceled = errors.New("run canceled")
)
