package core

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// controller is the half of a checkpoint protocol that Engine and VCL
// share. It models mpirun, which receives checkpoint requests "from the
// system or the user", propagates them to the MPI processes (one child per
// group) and waits for one done reply per rank; when all groups have
// finished, mpirun checkpoints itself (not timed, as in the paper's
// measurements). It also runs the per-rank checkpoint daemons, which hand
// each request to the protocol and report its result.
//
// The head node is rank 0's node: request and done messages cross the real
// network, so request propagation to n ranks costs n serialized control
// messages from the head NIC.
type controller struct {
	w      *mpi.World
	groups [][]int // request fan-out order; covers every rank once

	snaps      []*ckpt.Snapshot // latest snapshot per rank
	records    []ckpt.Record
	epochs     int // completed checkpoint epochs
	epochSeq   int // next epoch id to issue
	epochSpans []Span

	onRecord func(ckpt.Record)
	onCut    func(Cut)

	// Partitioned-run buffers (nil on a serial world): each partition
	// appends its ranks' records and cuts during a window, without
	// locking; the kernel's round barrier flushes them in a deterministic
	// order. pending is set by every append, so the many rounds that
	// buffer nothing skip the flush. cutBuf is the flush's reused
	// scratch for sorting cuts.
	pendRecs [][]ckpt.Record
	pendCuts [][]Cut
	cutBuf   []Cut
	pending  atomic.Bool
}

// Span is a [From, To) interval of virtual time.
type Span struct{ From, To sim.Time }

// protocol is a checkpoint protocol's side of an epoch at one rank, split
// where the rank's daemon first needs a stack. arrive runs in kernel
// context, in the event the request reaches rank r in, and returns how long
// the daemon then sleeps, dormant; checkpoint runs on the daemon's
// coroutine when it wakes, and ends in finish.
type protocol interface {
	arrive(r *mpi.Rank) sim.Time
	checkpoint(p *sim.Proc, r *mpi.Rank, req request)
}

// request is the epoch a daemon serves: its id, the rank to send the done
// reply to, and the instant the request reached the daemon's rank.
type request struct {
	epoch, replyTo int
	start          sim.Time
}

// daemon is one rank's checkpoint daemon, ckptd. It holds a coroutine only
// while the protocol's checkpoint body runs. In between it is dormant: its
// control mailbox hands the next request to receive, in kernel context, and
// receive wakes it once the protocol's arrive step has passed.
type daemon struct {
	proto   protocol
	r       *mpi.Rank
	p       *sim.Proc
	req     request
	serving bool      // req has arrived and its checkpoint has not run
	receive func(any) // d.take, bound once per daemon
}

// run is the daemon's body, run afresh at each wakeup: it serves the
// request that woke it, if any, and re-arms the control receive. A request
// already queued is taken at once; either way the body returns and the
// daemon is dormant until its next request's arrive step has passed.
func (d *daemon) run(p *sim.Proc) {
	if d.serving {
		d.serving = false
		d.proto.checkpoint(p, d.r, d.req)
	}
	d.r.CtrlRecvFunc(p, mpi.AnySource, tagCkptReq, d.receive)
}

// take accepts a request in kernel context: it frees the request's
// envelope once it has read the epoch and the sender, runs the protocol's
// arrive step and schedules the daemon's wakeup after it, even after no
// time.
func (d *daemon) take(v any) {
	m := v.(*mpi.Msg)
	d.req = request{epoch: int(m.Val), replyTo: m.Src, start: d.p.Now()}
	d.r.W.Free(m)
	d.serving = true
	d.p.WakeAt(d.req.start + d.proto.arrive(d.r))
}

// start installs the controller on w, whose partition map must already be
// set, and spawns one checkpoint daemon per rank in the rank's partition.
// A daemon costs no coroutine until a request's arrive step has passed, and
// gives it up when its checkpoint ends: at any instant only the ranks whose
// checkpoint body is running hold one. The body calls finish rather than
// returning its record: the deeper frames of a returned record grew each
// daemon's stack past its starting size (6 MB more peak RSS at 4096 ranks,
// when every daemon held its stack for the whole run).
func (c *controller) start(w *mpi.World, groups [][]int, proto protocol) {
	c.w, c.groups = w, groups
	c.snaps = make([]*ckpt.Snapshot, w.N)
	if np := w.Parts(); np > 1 {
		c.pendRecs = make([][]ckpt.Record, np)
		c.pendCuts = make([][]Cut, np)
		w.K.OnBarrier(c.flushPending)
	}
	daemons := make([]daemon, w.N)
	for i, r := range w.Ranks {
		d := &daemons[i]
		d.proto, d.r, d.receive = proto, r, d.take
		d.p = w.K.SpawnDaemonIn(w.Part(r.ID), sim.L("ckptd", r.ID), d.run)
	}
}

// OnRecord installs fn to receive each rank's completed checkpoint record
// the moment the rank finishes its checkpoint: mid-window on a serial
// world, at the next round barrier on a partitioned one. fn runs in kernel
// context and must not block. Install it before the kernel runs.
func (c *controller) OnRecord(fn func(ckpt.Record)) { c.onRecord = fn }

// ScheduleAt triggers one checkpoint of all ranks at virtual time t. Must
// be called before the kernel runs.
func (c *controller) ScheduleAt(t sim.Time) {
	cp := c.w.Part(0) // mpirun lives with the head rank's partition
	c.w.K.PartAt(cp, t, func() {
		c.w.K.SpawnDaemonIn(cp, sim.L("mpirun"), c.runEpoch)
	})
}

// SchedulePeriodic triggers a checkpoint of all ranks every interval,
// starting at start, until the application finishes or maxCount
// checkpoints have completed (0 = unlimited). If a checkpoint epoch
// overruns the interval, the next one starts as soon as the previous
// completes.
func (c *controller) SchedulePeriodic(start, interval sim.Time, maxCount int) {
	cp := c.w.Part(0)
	c.w.K.PartAt(cp, 0, func() {
		c.w.K.SpawnDaemonIn(cp, sim.L("mpirun"), func(p *sim.Proc) {
			next := start
			for i := 0; maxCount == 0 || i < maxCount; i++ {
				p.HoldUntil(next)
				if c.w.AllFinishedView() {
					return
				}
				c.runEpoch(p)
				next += interval
				if now := p.Now(); next < now {
					next = now
				}
			}
		})
	})
}

// runEpoch performs one complete checkpoint epoch from mpirun's
// perspective: propagate requests to every member of every group, then
// wait for every done reply.
func (c *controller) runEpoch(p *sim.Proc) {
	// Epoch ids are assigned at issue time so epochs in flight together
	// (a one-off checkpoint beside a periodic schedule) stay distinct
	// (epoch-scoped control tags).
	epoch := c.epochSeq
	c.epochSeq++
	head := c.w.Ranks[0]
	from := p.Now()
	c.records = slices.Grow(c.records, c.w.N) // one record per rank

	// mpirun spawns one child per group to propagate the request; the
	// timing-relevant cost is the serialized request sends from the head
	// node and the done replies. The groups cover every rank once, so one
	// reply comes back per rank.
	for _, g := range c.groups {
		for _, m := range g {
			head.CtrlSend(p, m, tagCkptReq, reqBytes, int64(epoch), nil)
		}
	}
	for range c.w.N {
		head.CtrlRecv(p, mpi.AnySource, tagCkptDoneBase+epoch)
	}
	// mpirun checkpoints itself here (not timed; it does not affect the
	// application's normal execution).
	c.epochs++
	c.epochSpans = append(c.epochSpans, Span{From: from, To: p.Now()})
}

// finish ends rank r's side of an epoch: it stores the snapshot, appends
// the record and sends the done reply to mpirun.
func (c *controller) finish(p *sim.Proc, r *mpi.Rank, snap *ckpt.Snapshot, rec ckpt.Record, replyTo int) {
	c.snaps[r.ID] = snap
	if c.pendRecs != nil {
		pt := c.w.Part(r.ID)
		c.pendRecs[pt] = append(c.pendRecs[pt], rec)
		c.pending.Store(true)
	} else {
		c.records = append(c.records, rec)
		c.report(c.records[len(c.records)-1:])
	}
	r.CtrlSend(p, replyTo, tagCkptDoneBase+rec.Epoch, doneBytes, int64(rec.Epoch), nil)
}

// report hands each of recs, the tail of the record list, to onRecord.
func (c *controller) report(recs []ckpt.Record) {
	if c.onRecord != nil {
		for _, rec := range recs {
			c.onRecord(rec)
		}
	}
}

// reportCut hands a rank's cut to onCut: at once on a serial world, at the
// next round barrier on a partitioned one.
func (c *controller) reportCut(cut Cut) {
	if c.pendCuts == nil {
		c.onCut(cut)
		return
	}
	pt := c.w.Part(cut.Rank)
	c.pendCuts[pt] = append(c.pendCuts[pt], cut)
	c.pending.Store(true)
}

// flushPending runs at every kernel round barrier (all partitions
// quiesced): it drains the per-partition cut and record buffers into
// onCut and the record list, sorted by completion time with (epoch, rank)
// tie-breaks — a total order that depends only on the simulation, never on
// worker scheduling. Records are appended to the list and sorted there, as
// its tail; cuts are sorted in a buffer the flushes share.
func (c *controller) flushPending() {
	if !c.pending.Load() {
		return
	}
	c.pending.Store(false)
	cuts := c.cutBuf[:0]
	for pt := range c.pendCuts {
		cuts = append(cuts, c.pendCuts[pt]...)
		c.pendCuts[pt] = c.pendCuts[pt][:0]
	}
	slices.SortFunc(cuts, func(a, b Cut) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Rank, b.Rank))
	})
	for _, cut := range cuts {
		c.onCut(cut)
	}
	c.cutBuf = cuts[:0]

	from := len(c.records)
	for pt := range c.pendRecs {
		c.records = append(c.records, c.pendRecs[pt]...)
		c.pendRecs[pt] = c.pendRecs[pt][:0]
	}
	recs := c.records[from:]
	slices.SortFunc(recs, func(a, b ckpt.Record) int {
		return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Rank, b.Rank))
	})
	c.report(recs)
}

// Records returns all per-rank checkpoint records so far.
func (c *controller) Records() []ckpt.Record { return c.records }

// Epochs returns the number of completed checkpoint epochs.
func (c *controller) Epochs() int { return c.epochs }

// EpochSpans returns the controller-observed checkpoint spans (request
// issue → all done replies), for trace overlays.
func (c *controller) EpochSpans() []Span { return c.epochSpans }

// Snapshots returns the latest snapshot per rank (nil entries for ranks that
// never checkpointed).
func (c *controller) Snapshots() []*ckpt.Snapshot { return slices.Clone(c.snaps) }

// SnapshotNow returns rank's latest snapshot as of the current virtual time
// (nil before its first checkpoint). Unlike Snapshots, which is normally
// read after the run, SnapshotNow is meant for kernel-context callbacks —
// failure injectors evaluate rollback cost against the checkpoint that
// existed at the failure instant, not the final one.
func (c *controller) SnapshotNow(rank int) *ckpt.Snapshot { return c.snaps[rank] }

// ctrlBarrier is a dissemination barrier over the control plane among
// members, which must include r.
func ctrlBarrier(p *sim.Proc, r *mpi.Rank, members []int, tagBase int) {
	n := len(members)
	if n <= 1 {
		return
	}
	me := slices.Index(members, r.ID)
	if me < 0 {
		panic("core: barrier caller not in member list")
	}
	for k, round := 1, 0; k < n; k, round = k*2, round+1 {
		to := members[(me+k)%n]
		from := members[(me-k+n)%n]
		r.CtrlSend(p, to, tagBase+round, bookmarkBytes, 0, nil)
		r.CtrlRecv(p, from, tagBase+round)
	}
}
