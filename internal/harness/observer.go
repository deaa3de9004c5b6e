package harness

import (
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Observer hooks one run. Observers replace what used to be the Trace /
// Comm / Inspect booleans on Spec: each is a small stateful object attached
// to exactly one run, and they stack — a spec may carry any number,
// including user-defined ones.
//
// BeforeRun is called once the simulated world exists, before the workload
// launches; a non-nil returned tracer is installed on the world (multiple
// observers' tracers are fanned out through a trace.Tee). AfterRun is
// called once the run completes, with the Result to publish into.
// Observers are never called concurrently for the same run, but distinct
// runs (sweep cells) each need their own observer instances.
type Observer interface {
	BeforeRun(env *RunEnv) mpi.Tracer
	AfterRun(res *Result)
}

// RunEnv is what an observer may hook before launch: the world itself plus
// registration points for engine callbacks.
type RunEnv struct {
	// World is the simulated MPI world, fully built but not yet launched.
	World *mpi.World

	onCut     []func(core.Cut)
	onRecord  []func(ckpt.Record)
	onFailure []func(failure.Outcome)
}

// OnCut registers fn to receive each rank's cut record the moment its
// checkpoint cut is fixed. Group-based modes only; under VCL the engine
// keeps no per-rank cut state and registrations are ignored.
func (e *RunEnv) OnCut(fn func(core.Cut)) { e.onCut = append(e.onCut, fn) }

// OnRecord registers fn to receive each rank's completed checkpoint record
// the moment its checkpoint finishes — group engine and VCL baseline
// alike, so per-checkpoint metrics cover mode comparisons end to end.
func (e *RunEnv) OnRecord(fn func(ckpt.Record)) { e.onRecord = append(e.onRecord, fn) }

// OnFailure registers fn to receive each injected failure's evaluated
// outcome the moment it is recorded. Called only when the spec arms a
// FailureProc.
func (e *RunEnv) OnFailure(fn func(failure.Outcome)) { e.onFailure = append(e.onFailure, fn) }

// fanOut folds registered callbacks into the single hook an engine or
// injector takes (nil when nothing registered, so it skips the work).
func fanOut[T any](fns []func(T)) func(T) {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(v T) {
		for _, fn := range fns {
			fn(v)
		}
	}
}

// TraceObserver attaches the full record tracer to a run and publishes the
// records as Result.Trace. Memory scales with message count; needed only
// for timeline/gap analyses and trace files.
type TraceObserver struct {
	rec trace.Recorder
}

// NewTraceObserver returns a fresh observer for one run.
func NewTraceObserver() *TraceObserver { return &TraceObserver{} }

// BeforeRun implements Observer.
func (o *TraceObserver) BeforeRun(*RunEnv) mpi.Tracer { return &o.rec }

// AfterRun implements Observer.
func (o *TraceObserver) AfterRun(res *Result) { res.Trace = o.rec.Records }

// CommObserver attaches the streaming CommMatrix tracer to a run and
// publishes it as Result.Comm: pairwise bytes/counts aggregated online,
// memory bounded by communicating pairs, usable at any scale.
type CommObserver struct {
	m *trace.CommMatrix
}

// NewCommObserver returns a fresh observer for one run.
func NewCommObserver() *CommObserver { return &CommObserver{m: trace.NewCommMatrix()} }

// BeforeRun implements Observer.
func (o *CommObserver) BeforeRun(*RunEnv) mpi.Tracer { return o.m }

// AfterRun implements Observer.
func (o *CommObserver) AfterRun(res *Result) { res.Comm = o.m }

// Matrix returns the streaming aggregation (live during the run, final
// after it).
func (o *CommObserver) Matrix() *trace.CommMatrix { return o.m }

// InspectObserver attaches the invariant-oracle introspection: world
// message statistics and per-pair byte flows (Result.MsgStats,
// Result.Flows), mailbox depths at termination (Result.QueuedApp/
// QueuedCtrl), and per-checkpoint cut records (Result.Cuts; group-based
// modes only). Flows cost O(communicating pairs) at the end of the run;
// everything else is a few integers.
type InspectObserver struct {
	w    *mpi.World
	cuts []core.Cut
}

// NewInspectObserver returns a fresh observer for one run.
func NewInspectObserver() *InspectObserver { return &InspectObserver{} }

// BeforeRun implements Observer.
func (o *InspectObserver) BeforeRun(env *RunEnv) mpi.Tracer {
	o.w = env.World
	env.OnCut(func(c core.Cut) { o.cuts = append(o.cuts, c) })
	return nil
}

// AfterRun implements Observer.
func (o *InspectObserver) AfterRun(res *Result) {
	res.MsgStats = o.w.Stats()
	res.Flows = o.w.PairFlows()
	res.QueuedApp, res.QueuedCtrl = o.w.Queued()
	res.Cuts = o.cuts
}
