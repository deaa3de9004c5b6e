package failure

import (
	"math/rand"

	"repro/internal/ckpt"
	"repro/internal/group"
	"repro/internal/mlog"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// DefaultMaxFailures caps an injector whose caller did not set a limit, so
// a mis-calibrated process (MTBF ≪ run length) cannot stall a sweep.
const DefaultMaxFailures = 256

// StateSource provides the checkpoint protocol's live per-rank state at a
// failure instant. core.Engine implements it.
type StateSource interface {
	// SnapshotNow returns the rank's latest completed snapshot (nil
	// before its first checkpoint).
	SnapshotNow(rank int) *ckpt.Snapshot
	// LogSetNow returns the rank's live sender logs.
	LogSetNow(rank int) *mlog.Set
}

// Injector drives a Process against a running world: failures arrive as a
// renewal chain of kernel events, each striking a node drawn uniformly, and
// each is evaluated *at its instant* — against the snapshots and logs that
// existed then, before later checkpoints advance the cuts and piggybacked
// GC prunes the replay evidence. The injection is observational: it reads
// counters and protocol state but never perturbs the simulation, so a run
// with an armed injector is byte-identical to one without.
type Injector struct {
	w    *mpi.World
	f    group.Formation
	src  StateSource
	proc Process
	rng  *rand.Rand
	max  int

	outcomes []Outcome

	// OnOutcome, when non-nil, receives each failure's evaluated outcome
	// the moment it is recorded. It runs in kernel context and must not
	// block or perturb the simulation (the injector itself is purely
	// observational). Set before Arm.
	OnOutcome func(Outcome)
}

// NewInjector builds an injector for the world. The formation must be the
// one the protocol engine runs (a failed node rolls back its checkpoint
// group); src is that engine. seed drives the failure process independently
// of the kernel's RNG; maxFailures ≤ 0 selects DefaultMaxFailures.
func NewInjector(w *mpi.World, f group.Formation, src StateSource, proc Process, seed int64, maxFailures int) *Injector {
	if maxFailures <= 0 {
		maxFailures = DefaultMaxFailures
	}
	return &Injector{
		w: w, f: f, src: src, proc: proc,
		rng: sim.NewRand(seed),
		max: maxFailures,
	}
}

// Arm schedules the first failure. Call after the engine is installed and
// before the kernel runs.
//
// Failures are global (barrier-synchronized) events: on a partitioned
// kernel they fire only once every partition has consumed all events
// strictly before the failure instant, so evaluate reads the same
// fully-quiesced state a serial run would — at any worker count.
func (inj *Injector) Arm() {
	inj.w.K.GlobalAfter(GapAt(inj.proc, inj.w.K.Now(), inj.rng), inj.fire)
}

// Outcomes returns the evaluated failures in arrival order.
func (inj *Injector) Outcomes() []Outcome { return inj.outcomes }

// fire evaluates one failure in kernel context and schedules the next.
func (inj *Injector) fire() {
	if inj.allFinished() || len(inj.outcomes) >= inj.max {
		return // application over (or cap hit): the renewal chain ends
	}
	node := inj.rng.Intn(inj.w.N)
	out := inj.evaluate(node)
	inj.outcomes = append(inj.outcomes, out)
	if inj.OnOutcome != nil {
		inj.OnOutcome(out)
	}
	inj.w.K.GlobalAfter(GapAt(inj.proc, inj.w.K.Now(), inj.rng), inj.fire)
}

func (inj *Injector) allFinished() bool {
	for _, r := range inj.w.Ranks {
		if !r.Finished {
			return false
		}
	}
	return true
}

// evaluate computes the group-vs-global restart comparison for a failure of
// node at the current instant. A rank with no checkpoint yet restarts from
// t=0 (cut at zero volume), so early failures are costly under every mode —
// exactly the paper's case for shorter intervals on failure-prone groups.
func (inj *Injector) evaluate(node int) Outcome {
	now := inj.w.K.Now()
	gi := inj.f.GroupOf(node)
	out := Outcome{
		FailedNode:  node,
		FailedGroup: gi,
		FailedRanks: append([]int{}, inj.f.Groups[gi]...),
		At:          now,
	}

	// Work lost: group restart rolls back only the failed group; a global
	// restart throws away every rank's progress since its last cut. A
	// finished rank has nothing left to lose beyond its completed span.
	for q, r := range inj.w.Ranks {
		upTo := now
		if r.Finished && r.FinishTime < now {
			upTo = r.FinishTime
		}
		var cut sim.Time
		if s := inj.src.SnapshotNow(q); s != nil {
			cut = s.At
		}
		loss := upTo - cut
		if loss < 0 {
			loss = 0
		}
		out.WorkLossGlb += loss
		if inj.f.SameGroup(q, node) {
			out.WorkLossGrp += loss
		}
	}

	// Replay and held log bytes: out-of-group peers resend, from their
	// sender logs, whatever they pushed to the failed ranks beyond each
	// rank's checkpoint cut.
	for peer := range inj.w.Ranks {
		if inj.f.SameGroup(peer, node) {
			continue
		}
		logs := inj.src.LogSetNow(peer)
		if logs == nil {
			continue
		}
		for _, fr := range out.FailedRanks {
			var have int64
			if s := inj.src.SnapshotNow(fr); s != nil {
				have = s.RecvdFrom[peer]
			}
			sent := inj.w.Ranks[peer].SentBytes(fr)
			if sent > have {
				plan := logs.Replay(fr, have, sent)
				out.ReplayBytes += plan.Bytes
				out.ReplayPairs++
			}
			if l := logs.Get(fr); l != nil {
				for _, e := range l.Entries {
					out.LogHeldBytes += e.Bytes
				}
			}
		}
	}
	return out
}

// Totals aggregates a run's failure outcomes.
type Totals struct {
	Failures    int
	WorkLossGrp sim.Time
	WorkLossGlb sim.Time
	ReplayBytes int64
	ReplayPairs int
}

// Sum folds outcomes into totals.
func Sum(outs []Outcome) Totals {
	var t Totals
	for _, o := range outs {
		t.Failures++
		t.WorkLossGrp += o.WorkLossGrp
		t.WorkLossGlb += o.WorkLossGlb
		t.ReplayBytes += o.ReplayBytes
		t.ReplayPairs += o.ReplayPairs
	}
	return t
}

// WorkSaved returns the aggregate work preserved by group restarts over
// global restarts across all failures.
func (t Totals) WorkSaved() sim.Time { return t.WorkLossGlb - t.WorkLossGrp }
