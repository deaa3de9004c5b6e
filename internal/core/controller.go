package core

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Controller models mpirun: it receives checkpoint requests "from the system
// or the user" and propagates them to the MPI processes, spawning one child
// per group; when all groups have finished, mpirun checkpoints itself (not
// timed, as in the paper's measurements).
//
// The head node is rank 0's node: request and done messages cross the real
// network, so request propagation to n ranks costs n serialized control
// messages from the head NIC.

// ScheduleAt triggers one checkpoint of all groups at virtual time t. Must
// be called before the kernel runs.
func (e *Engine) ScheduleAt(t sim.Time) {
	cp := e.part(0) // the controller lives with the head rank's partition
	e.w.K.PartAt(cp, t, func() {
		e.w.K.SpawnDaemonIn(cp, "mpirun", e.runEpoch)
	})
}

// SchedulePeriodic triggers a checkpoint of all groups every interval,
// starting at start, until the application finishes or maxCount checkpoints
// have completed (0 = unlimited). If a checkpoint epoch overruns the
// interval, the next one starts as soon as the previous completes.
func (e *Engine) SchedulePeriodic(start, interval sim.Time, maxCount int) {
	cp := e.part(0)
	e.w.K.PartAt(cp, 0, func() {
		e.w.K.SpawnDaemonIn(cp, "mpirun", func(p *sim.Proc) {
			next := start
			for i := 0; maxCount == 0 || i < maxCount; i++ {
				p.HoldUntil(next)
				if e.appFinished() {
					return
				}
				e.runEpoch(p)
				next += interval
				if now := p.Now(); next < now {
					next = now
				}
			}
		})
	})
}

// appFinished reports whether every rank's application body has returned.
// On a partitioned world the view is the one committed at the last round
// barrier — race-free and identical at every worker count.
func (e *Engine) appFinished() bool { return e.w.AllFinishedView() }

// runEpoch performs one complete checkpoint epoch from the controller's
// perspective: propagate requests to every member of every group, then wait
// for every done reply.
func (e *Engine) runEpoch(p *sim.Proc) {
	// Epoch ids are assigned at issue time so epochs in flight together
	// (a one-off checkpoint beside a periodic schedule) stay distinct
	// (epoch-scoped control tags).
	epoch := e.epochSeq
	e.epochSeq++
	head := e.w.Ranks[0]
	from := p.Now()

	// mpirun spawns one child per group to propagate the request; the
	// timing-relevant cost is the serialized request sends from the head
	// node and the done replies. The formation covers every rank once
	// (NewEngine validates it), so one reply comes back per rank.
	for _, g := range e.cfg.Formation.Groups {
		for _, m := range g {
			head.CtrlSend(p, m, tagCkptReq, reqBytes, epoch)
		}
	}
	for range e.w.N {
		head.CtrlRecv(p, mpi.AnySource, tagCkptDoneBase+epoch)
	}
	// mpirun checkpoints itself here (not timed; it does not affect the
	// application's normal execution).
	e.epochs++
	e.epochSpans = append(e.epochSpans, Span{From: from, To: p.Now()})
}
