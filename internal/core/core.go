// Package core implements the paper's primary contribution: group-based
// checkpoint/restart for message-passing applications (paper Algorithm 1)
// and the Chandy–Lamport non-blocking baseline (MPICH-VCL) used in the
// paper's Section 5.3 comparison, both driven by one mpirun-style
// controller that propagates checkpoint requests.
//
// One Engine covers the paper's whole GP/GP1/GP4/NORM spectrum, because they
// are all the same protocol under different group formations:
//
//   - NORM: one global group — LAM/MPI blocking coordinated checkpointing
//     (the intra-group path is exactly LAM's lock → bookmark exchange →
//     drain → image → finalize sequence, and with one group there are no
//     logs);
//   - GP1: singleton groups — uncoordinated checkpointing, every message
//     logged;
//   - GP4/GP: intermediate formations — coordination inside groups, sender
//     logging across groups, piggybacked log GC, replay/skip on restart.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mlog"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Control-plane tags. Epoch-scoped tags keep back-to-back checkpoints of the
// same group from cross-matching.
const (
	tagCkptReq      = mpi.TagCtrlBase + 1
	tagCkptDoneBase = mpi.TagCtrlBase + 0x00100 // + epoch

	tagBookmarkBase = mpi.TagCtrlBase + 0x01000 // + epoch
	tagBarrierBase  = mpi.TagCtrlBase + 0x10000 // + epoch*64 + round
	tagMarkerBase   = mpi.TagCtrlBase + 0x20000 // + epoch
	tagRxSx         = mpi.TagCtrlBase + 0x30000
	tagReplay       = mpi.TagCtrlBase + 0x30001
)

const (
	bookmarkBytes = 16
	markerBytes   = 16
	doneBytes     = 16
	reqBytes      = 32
	rxSxBytes     = 24
)

// Config parameterizes the group-based engine.
type Config struct {
	Formation group.Formation
	// Store receives checkpoint images. Message logs always go to the
	// local disk, as in the paper.
	Store cluster.Storage
	// ImageBytes gives the checkpoint image size of a rank (the
	// workload's memory footprint plus runtime overhead).
	ImageBytes func(rank int) int64
	// OnCut, when non-nil, receives each rank's cut state the moment its
	// group channels are drained (end of the Coordination stage, gates
	// still closed); on a partitioned world, at the next round barrier, in
	// a deterministic order. It runs in kernel context and must not block.
	// The simcheck invariant oracle uses it to verify cut consistency:
	// within a group and epoch, every member's received bytes at its cut
	// must equal the peer's sent bytes at the peer's cut (no orphan
	// messages, no in-transit residue inside a group).
	OnCut func(Cut)
}

// Calibrated costs of the group protocol.
const (
	// logCopyRate is the sender-side memory-copy bandwidth of
	// asynchronous message logging (bytes/s).
	logCopyRate = 400e6
	// bgFlushRate is the background log-flusher rate (bytes/s): logs are
	// written to disk asynchronously during execution and only the tail
	// is synced at checkpoint time.
	bgFlushRate = 20e6
	// lockDelay is the base cost of the "Lock MPI" stage (signal
	// delivery, stopping in-progress operations). Daemon noise is added
	// on top, which is what produces NORM's coordination spikes.
	lockDelay = 20 * sim.Millisecond
	// PeerCost is the per-connection cost of quiescing one channel during
	// the bookmark exchange (socket handling, bookmark processing). Each
	// rank pays it once per group member, which is what makes global
	// coordination cost grow superlinearly in aggregate (Figure 1) while
	// √n-sized groups stay flat.
	PeerCost = 50 * sim.Millisecond
	// signalJitter is the maximum random delay between the checkpoint
	// request reaching a node and the rank actually freezing (daemon
	// scheduling, signal delivery, in-progress system calls). The skew it
	// creates between ranks' cut instants is what leaves messages "owed"
	// across uncoordinated cuts (Figures 7 and 8) and what global
	// coordination has to wait out (Figure 1).
	signalJitter = 150 * sim.Millisecond
)

// Cut is one rank's frozen channel state at a checkpoint cut, reported via
// Config.OnCut. InGroupSent/InGroupRecvd cover the other members of the
// rank's checkpoint group (empty maps for singleton groups).
type Cut struct {
	Rank, Epoch  int
	At           sim.Time
	InGroupSent  map[int]int64 // bytes this rank pushed toward each member
	InGroupRecvd map[int]int64 // transport bytes received from each member
}

// DefaultConfig fills in the calibrated defaults used across experiments.
func DefaultConfig(f group.Formation, imageBytes func(int) int64) Config {
	return Config{
		Formation:  f,
		Store:      cluster.LocalDisk{},
		ImageBytes: imageBytes,
	}
}

// rankState is the per-rank protocol state of Algorithm 1.
type rankState struct {
	members []int // checkpoint group, sorted, including self
	logs    *mlog.Set
	// owedPB holds, for each peer owed a piggyback on the next send, the
	// RR_X volume recorded for it at the last checkpoint. Nil while no
	// piggyback is owed.
	owedPB map[int]int64
}

// Engine is the group-based checkpoint/restart protocol: the shared
// controller plus Algorithm 1's checkpoint body and message hooks.
type Engine struct {
	controller
	cfg    Config
	states []rankState // by rank
}

// NewEngine installs the protocol on a world: it registers the send/deliver
// hooks and spawns one checkpoint daemon per rank. Call after any
// World.SetPartitions and before Launch/Run.
func NewEngine(w *mpi.World, cfg Config) *Engine {
	if err := cfg.Formation.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid formation: %v", err))
	}
	if cfg.Formation.N != w.N {
		panic("core: formation size does not match world")
	}
	if cfg.ImageBytes == nil {
		cfg.ImageBytes = func(int) int64 { return 0 }
	}
	if cfg.Store == nil {
		cfg.Store = cluster.LocalDisk{}
	}
	e := &Engine{cfg: cfg, states: make([]rankState, w.N)}
	e.onCut = cfg.OnCut
	for i := range e.states {
		e.states[i] = rankState{
			members: cfg.Formation.Members(i),
			logs:    mlog.NewSet(i, logCopyRate, bgFlushRate),
		}
	}
	w.Hooks = e
	e.start(w, cfg.Formation.Groups, e.checkpoint)
	return e
}

// Name identifies the engine configuration in reports.
func (e *Engine) Name() string {
	switch {
	case len(e.cfg.Formation.Groups) == 1:
		return "NORM"
	case e.cfg.Formation.MaxGroupSize() == 1:
		return "GP1"
	default:
		return fmt.Sprintf("GP(%d groups)", len(e.cfg.Formation.Groups))
	}
}

// LogSetNow returns rank's live sender log set as of the current virtual
// time. Failure injectors must read replay volumes at the failure instant:
// piggybacked garbage collection prunes these logs as the run continues.
func (e *Engine) LogSetNow(rank int) *mlog.Set { return e.states[rank].logs }

// LogSets returns the per-rank sender logs (live; shared with restart).
func (e *Engine) LogSets() []*mlog.Set {
	out := make([]*mlog.Set, len(e.states))
	for i := range e.states {
		out[i] = e.states[i].logs
	}
	return out
}

// BeforeSend implements mpi.Hooks: inter-group messages are logged (with the
// asynchronous copy cost) and the first message to each peer after a
// checkpoint piggybacks RR so the peer can garbage-collect its logs
// (Algorithm 1's "on sending a message to process P").
func (e *Engine) BeforeSend(r *mpi.Rank, m *mpi.Msg) sim.Time {
	if e.cfg.Formation.SameGroup(r.ID, m.Dst) {
		return 0
	}
	st := &e.states[r.ID]
	d := st.logs.Log(m.Dst, m.Bytes, r.Now())
	if rr, owed := st.owedPB[m.Dst]; owed {
		m.Val, m.HasPB = rr, true
		delete(st.owedPB, m.Dst)
		if len(st.owedPB) == 0 {
			st.owedPB = nil // an emptied map keeps its table
		}
	}
	return d
}

// OnDeliver implements mpi.Hooks: a piggybacked volume from the sender
// garbage-collects this rank's log toward that sender (Algorithm 1's "on
// receiving a message from process P").
func (e *Engine) OnDeliver(d *mpi.Rank, m *mpi.Msg) {
	if m.HasPB {
		e.states[d.ID].logs.GC(m.Src, m.Val)
	}
}

// checkpoint runs one rank's side of a group checkpoint, recording the
// four-stage breakdown of Figure 9, and hands the result to finish.
func (e *Engine) checkpoint(p *sim.Proc, r *mpi.Rank, epoch, replyTo int) {
	st := &e.states[r.ID]
	start := p.Now()

	// Stage 1 — Lock MPI: freeze the application (it parks at its next
	// send, receive-completion, or compute-slice boundary). The freeze
	// instant jitters per rank: signal delivery is not instantaneous. The
	// draw comes from the rank's partition stream: PartRand(0) is the
	// master stream, so a serial engine keeps the classic draw order.
	rng := e.w.K.PartRand(e.w.Part(r.ID))
	p.Hold(sim.Time(rng.Int63n(int64(signalJitter))))
	r.Gate.Close()
	r.SendGate.Close()
	r.Node.Delay(p, lockDelay)
	tLock := p.Now()

	// Stage 2 — Coordination.
	// 2a. Synchronize message logs: flush pending log bytes to local disk
	// so "each successful checkpoint comes with a correct set of logs".
	var flushed int64
	if pend := st.logs.PendingFlush(); pend > 0 {
		r.Node.Disk.Use(p, pend)
		st.logs.MarkFlushed()
		flushed = pend
	}
	// 2b. Bookmark exchange and drain within the group: each member
	// advertises the bytes it has pushed toward us; we wait until our
	// transport has received them all (LAM/MPI CRTCP quiesce).
	if len(st.members) > 1 {
		tag := tagBookmarkBase + epoch
		for _, mem := range st.members {
			if mem != r.ID {
				r.CtrlSend(p, mem, tag, bookmarkBytes, r.SentBytes(mem), nil)
			}
		}
		for _, mem := range st.members {
			if mem == r.ID {
				continue
			}
			bm := r.CtrlRecv(p, mem, tag)
			r.Node.Delay(p, PeerCost) // per-channel quiesce work
			// Wait only on a channel with bytes still in flight: most
			// members of a wide group never talk to us, and a drained
			// channel needs no counter.
			if target := bm.Val; r.RecvdBytes(mem) < target {
				r.RecvdCounter(mem).AwaitAtLeast(p, target)
			}
		}
	}
	// 2c. Record RR_Q for out-of-group peers and arm piggybacks
	// (Algorithm 1's "remember R_Q as RR_Q").
	snap := &ckpt.Snapshot{
		Rank: r.ID, Epoch: epoch, At: p.Now(),
		ImageBytes: e.cfg.ImageBytes(r.ID),
	}
	// Only peers this rank actually exchanged traffic with matter; the
	// sparse scan keeps a 16384-rank epoch from costing n² channel probes.
	r.ForEachPeer(func(q int, sent, recvd int64) {
		if q == r.ID || e.cfg.Formation.SameGroup(r.ID, q) {
			return
		}
		if sent == 0 && recvd == 0 {
			return
		}
		if st.owedPB == nil {
			st.owedPB = map[int]int64{}
		}
		st.owedPB[q] = recvd
		snap.Cuts = append(snap.Cuts, ckpt.PeerCut{Peer: q, Sent: sent, Recvd: recvd})
	})
	slices.SortFunc(snap.Cuts, func(a, b ckpt.PeerCut) int { return cmp.Compare(a.Peer, b.Peer) })
	if e.onCut != nil {
		cut := Cut{
			Rank: r.ID, Epoch: epoch, At: p.Now(),
			InGroupSent:  map[int]int64{},
			InGroupRecvd: map[int]int64{},
		}
		for _, mem := range st.members {
			if mem == r.ID {
				continue
			}
			cut.InGroupSent[mem] = r.SentBytes(mem)
			cut.InGroupRecvd[mem] = r.RecvdBytes(mem)
		}
		e.reportCut(cut)
	}
	tCoord := p.Now()

	// Stage 3 — Checkpoint: write the image.
	e.cfg.Store.Write(p, r.Node, snap.ImageBytes)
	tWrite := p.Now()

	// Stage 4 — Finalize: wait until all group members finish, resume.
	ctrlBarrier(p, r, st.members, tagBarrierBase+epoch*64)
	r.Gate.Open()
	r.SendGate.Open()
	end := p.Now()

	e.finish(p, r, snap, ckpt.Record{
		Rank: r.ID, Epoch: epoch, Start: start, End: end,
		Stages: ckpt.Breakdown{
			ckpt.StageLock:     tLock - start,
			ckpt.StageCoord:    tCoord - tLock,
			ckpt.StageWrite:    tWrite - tCoord,
			ckpt.StageFinalize: end - tWrite,
		},
		ImageBytes: snap.ImageBytes,
		LogFlushed: flushed,
	}, replyTo)
}
