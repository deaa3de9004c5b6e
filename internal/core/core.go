// Package core implements the paper's primary contribution: group-based
// checkpoint/restart for message-passing applications (paper Algorithm 1),
// together with the mpirun-style controller that propagates checkpoint
// requests, and the Chandy–Lamport non-blocking baseline (MPICH-VCL) used in
// the paper's Section 5.3 comparison.
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
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/image"
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
	// LogCopyRate is the sender-side memory-copy bandwidth of
	// asynchronous message logging (bytes/s). Zero disables the cost.
	LogCopyRate float64
	// LockDelay is the base cost of the "Lock MPI" stage (signal
	// delivery, stopping in-progress operations). Daemon noise is added
	// on top, which is what produces NORM's coordination spikes.
	LockDelay sim.Time
	// PeerCost is the per-connection cost of quiescing one channel during
	// the bookmark exchange (socket handling, bookmark processing). Each
	// rank pays it once per group member, which is what makes global
	// coordination cost grow superlinearly in aggregate (Figure 1) while
	// √n-sized groups stay flat.
	PeerCost sim.Time
	// BgFlushRate is the background log-flusher rate (bytes/s): logs are
	// written to disk asynchronously during execution and only the tail
	// is synced at checkpoint time.
	BgFlushRate float64
	// Archive, when non-nil, receives a functional serialized image
	// (snapshot + flushed log entries, checksummed) at every checkpoint —
	// the durable counterpart of the timing model's image write. Restart
	// verification reads decisions back from the archive.
	Archive *image.Store
	// SignalJitter is the maximum random delay between the checkpoint
	// request reaching a node and the rank actually freezing (daemon
	// scheduling, signal delivery, in-progress system calls). The skew it
	// creates between ranks' cut instants is what leaves messages "owed"
	// across uncoordinated cuts (Figures 7 and 8) and what global
	// coordination has to wait out (Figure 1).
	SignalJitter sim.Time
	// OnCut, when non-nil, receives each rank's cut state the moment its
	// group channels are drained (end of the Coordination stage, gates
	// still closed). It runs in the checkpointing daemon's context and
	// must not block. The simcheck invariant oracle uses it to verify cut
	// consistency: within a group and epoch, every member's received
	// bytes at its cut must equal the peer's sent bytes at the peer's cut
	// (no orphan messages, no in-transit residue inside a group).
	OnCut func(Cut)
	// OnRecord, when non-nil, receives each rank's completed checkpoint
	// record the moment the rank finishes its group checkpoint (gates
	// reopened, record appended). It runs in the checkpointing daemon's
	// context and must not block. The harness's metrics observer uses it
	// to stream checkpoint durations and image bytes into a collector
	// while the run executes.
	OnRecord func(ckpt.Record)
	// Partitions, when non-nil, maps each rank to the kernel partition it
	// runs in (matching prior Kernel/World SetPartitions calls). The
	// engine then places each rank's checkpoint daemon in that partition
	// and routes per-rank randomness and record/cut reporting through
	// partition-safe paths: OnCut/OnRecord fire at round barriers, in a
	// deterministic order, instead of mid-window. Nil is the classic
	// serial engine. Partitioned engines do not support Archive (the
	// image store is a single shared structure).
	Partitions []int
}

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
		Formation:    f,
		Store:        cluster.LocalDisk{},
		ImageBytes:   imageBytes,
		LogCopyRate:  400e6,
		LockDelay:    20 * sim.Millisecond,
		PeerCost:     50 * sim.Millisecond,
		BgFlushRate:  20e6,
		SignalJitter: 150 * sim.Millisecond,
	}
}

// rankState is the per-rank protocol state of Algorithm 1.
type rankState struct {
	r       *mpi.Rank
	members []int // checkpoint group, sorted, including self
	logs    *mlog.Set
	rr      map[int]int64 // RR_X: recvd-from volume recorded at last ckpt
	needPB  map[int]bool  // peers owed a piggyback on the next send
	snap    *ckpt.Snapshot
}

// Engine is the group-based checkpoint/restart protocol.
type Engine struct {
	w   *mpi.World
	cfg Config

	states   []*rankState
	records  []ckpt.Record
	epochs   int // completed checkpoint epochs
	epochSeq int // next epoch id to issue

	// epochSpans records, per epoch, the controller-observed span of the
	// checkpoint (request issue → all groups done) for trace overlays.
	epochSpans []Span

	// Partitioned-run state: nparts > 1 when cfg.Partitions is installed.
	// pendRecs/pendCuts buffer each partition's records and cuts during a
	// window (partition-local appends, no locking); the kernel's round
	// barrier flushes them — sorted by completion time — into e.records
	// and the OnCut/OnRecord callbacks. pending is set by every append, so
	// the many rounds that buffer nothing skip the flush.
	nparts   int
	pendRecs [][]ckpt.Record
	pendCuts [][]Cut
	pending  atomic.Bool
}

// Span is a [From, To) interval of virtual time.
type Span struct{ From, To sim.Time }

// NewEngine installs the protocol on a world: it registers the send/deliver
// hooks and spawns one checkpoint daemon per rank. Call before Launch/Run.
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
	e := &Engine{w: w, cfg: cfg, nparts: 1}
	if cfg.Partitions != nil {
		if len(cfg.Partitions) != w.N {
			panic("core: partition map size does not match world")
		}
		for _, p := range cfg.Partitions {
			if p >= e.nparts {
				e.nparts = p + 1
			}
		}
	}
	if e.nparts > 1 {
		if cfg.Archive != nil {
			panic("core: Archive is not supported on a partitioned engine")
		}
		e.pendRecs = make([][]ckpt.Record, e.nparts)
		e.pendCuts = make([][]Cut, e.nparts)
		w.K.OnBarrier(e.flushPending)
	}
	for _, r := range w.Ranks {
		st := &rankState{
			r:       r,
			members: cfg.Formation.Members(r.ID),
			logs:    mlog.NewSet(r.ID, cfg.LogCopyRate),
			rr:      map[int]int64{},
			needPB:  map[int]bool{},
		}
		st.logs.BgFlushRate = cfg.BgFlushRate
		e.states = append(e.states, st)
		r.Ext = st
	}
	w.Hooks = e
	for _, st := range e.states {
		st := st
		w.K.SpawnDaemonIn(e.part(st.r.ID), fmt.Sprintf("ckptd%d", st.r.ID), func(p *sim.Proc) {
			e.daemon(st, p)
		})
	}
	return e
}

// part returns the kernel partition rank runs in (0 on a serial engine).
func (e *Engine) part(rank int) int {
	if e.cfg.Partitions == nil {
		return 0
	}
	return e.cfg.Partitions[rank]
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

// Records returns all per-rank checkpoint records so far.
func (e *Engine) Records() []ckpt.Record { return e.records }

// Epochs returns the number of completed checkpoint epochs.
func (e *Engine) Epochs() int { return e.epochs }

// EpochSpans returns the controller-observed checkpoint spans.
func (e *Engine) EpochSpans() []Span { return e.epochSpans }

// Formation returns the installed group formation.
func (e *Engine) Formation() group.Formation { return e.cfg.Formation }

// Snapshots returns the latest snapshot per rank (nil entries for ranks that
// never checkpointed).
func (e *Engine) Snapshots() []*ckpt.Snapshot {
	out := make([]*ckpt.Snapshot, len(e.states))
	for i, st := range e.states {
		out[i] = st.snap
	}
	return out
}

// SnapshotNow returns rank's latest snapshot as of the current virtual time
// (nil before its first checkpoint). Unlike Snapshots, which is normally
// read after the run, SnapshotNow is meant for kernel-context callbacks —
// failure injectors evaluate rollback cost against the checkpoint that
// existed at the failure instant, not the final one.
func (e *Engine) SnapshotNow(rank int) *ckpt.Snapshot { return e.states[rank].snap }

// LogSetNow returns rank's live sender log set as of the current virtual
// time. Failure injectors must read replay volumes at the failure instant:
// piggybacked garbage collection prunes these logs as the run continues.
func (e *Engine) LogSetNow(rank int) *mlog.Set { return e.states[rank].logs }

// LogSets returns the per-rank sender logs (live; shared with restart).
func (e *Engine) LogSets() []*mlog.Set {
	out := make([]*mlog.Set, len(e.states))
	for i, st := range e.states {
		out[i] = st.logs
	}
	return out
}

// TotalLogged returns cumulative logged bytes and messages across ranks.
func (e *Engine) TotalLogged() (int64, int) {
	var b int64
	var m int
	for _, st := range e.states {
		lb, lm := st.logs.TotalLogged()
		b += lb
		m += lm
	}
	return b, m
}

// BeforeSend implements mpi.Hooks: inter-group messages are logged (with the
// asynchronous copy cost) and the first message to each peer after a
// checkpoint piggybacks RR so the peer can garbage-collect its logs
// (Algorithm 1's "on sending a message to process P").
func (e *Engine) BeforeSend(r *mpi.Rank, m *mpi.Msg) sim.Time {
	if e.cfg.Formation.SameGroup(r.ID, m.Dst) {
		return 0
	}
	st := e.states[r.ID]
	d := st.logs.Log(m.Dst, m.Bytes, r.Now())
	if st.needPB[m.Dst] {
		if m.PB == nil {
			m.PB = map[int]int64{}
		}
		m.PB[r.ID] = st.rr[m.Dst]
		delete(st.needPB, m.Dst)
	}
	return d
}

// OnDeliver implements mpi.Hooks: a piggybacked volume from the sender
// garbage-collects this rank's log toward that sender (Algorithm 1's "on
// receiving a message from process P").
func (e *Engine) OnDeliver(d *mpi.Rank, m *mpi.Msg) {
	if m.PB == nil {
		return
	}
	if v, ok := m.PB[m.Src]; ok {
		e.states[d.ID].logs.GC(m.Src, v)
	}
}

// daemon is the per-rank checkpoint daemon: it waits for checkpoint requests
// from the controller and executes the group checkpoint.
func (e *Engine) daemon(st *rankState, p *sim.Proc) {
	for {
		m := st.r.CtrlRecv(p, mpi.AnySource, tagCkptReq)
		epoch := m.Payload.(int)
		e.checkpoint(st, p, epoch, m.Src)
	}
}

// checkpoint runs one rank's side of a group checkpoint, recording the
// four-stage breakdown of Figure 9.
func (e *Engine) checkpoint(st *rankState, p *sim.Proc, epoch, replyTo int) {
	r := st.r
	start := p.Now()

	// Stage 1 — Lock MPI: freeze the application (it parks at its next
	// send, receive-completion, or compute-slice boundary). The freeze
	// instant jitters per rank: signal delivery is not instantaneous.
	if e.cfg.SignalJitter > 0 {
		// Draw from the rank's partition stream: PartRand(0) is the
		// master stream, so a serial engine is bit-identical to the
		// classic draw order.
		rng := e.w.K.PartRand(e.part(r.ID))
		p.Hold(sim.Time(rng.Int63n(int64(e.cfg.SignalJitter))))
	}
	r.Gate.Close()
	r.SendGate.Close()
	r.Node.Delay(p, e.cfg.LockDelay)
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
				r.CtrlSend(p, mem, tag, bookmarkBytes, r.SentBytes(mem))
			}
		}
		for _, mem := range st.members {
			if mem == r.ID {
				continue
			}
			bm := r.CtrlRecv(p, mem, tag)
			r.Node.Delay(p, e.cfg.PeerCost) // per-channel quiesce work
			// Wait only on a channel with bytes still in flight: most
			// members of a wide group never talk to us, and a drained
			// channel needs no counter.
			if target := bm.Payload.(int64); r.RecvdBytes(mem) < target {
				r.RecvdCounter(mem).AwaitAtLeast(p, target)
			}
		}
	}
	// 2c. Record RR_Q for out-of-group peers and arm piggybacks
	// (Algorithm 1's "remember R_Q as RR_Q").
	snap := &ckpt.Snapshot{
		Rank: r.ID, Epoch: epoch, At: p.Now(),
		ImageBytes: e.cfg.ImageBytes(r.ID),
		SentTo:     map[int]int64{},
		RecvdFrom:  map[int]int64{},
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
		st.rr[q] = recvd
		st.needPB[q] = true
		snap.SentTo[q] = sent
		snap.RecvdFrom[q] = recvd
	})
	if e.cfg.OnCut != nil {
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
		if e.nparts > 1 {
			pt := e.part(r.ID)
			e.pendCuts[pt] = append(e.pendCuts[pt], cut)
			e.pending.Store(true)
		} else {
			e.cfg.OnCut(cut)
		}
	}
	tCoord := p.Now()

	// Stage 3 — Checkpoint: write the image.
	e.cfg.Store.Write(p, r.Node, snap.ImageBytes)
	tWrite := p.Now()

	// Stage 4 — Finalize: wait until all group members finish, resume.
	e.ctrlBarrier(p, r, st.members, tagBarrierBase+epoch*64)
	r.Gate.Open()
	r.SendGate.Open()
	end := p.Now()

	st.snap = snap
	if e.cfg.Archive != nil {
		img := image.FromEngineState(snap, st.logs, snap.ImageBytes)
		if _, err := e.cfg.Archive.Put(img); err != nil {
			panic(fmt.Sprintf("core: archiving image for rank %d: %v", r.ID, err))
		}
	}
	rec := ckpt.Record{
		Rank: r.ID, Epoch: epoch, Start: start, End: end,
		Stages: ckpt.Breakdown{
			ckpt.StageLock:     tLock - start,
			ckpt.StageCoord:    tCoord - tLock,
			ckpt.StageWrite:    tWrite - tCoord,
			ckpt.StageFinalize: end - tWrite,
		},
		ImageBytes: snap.ImageBytes,
		LogFlushed: flushed,
	}
	if e.nparts > 1 {
		pt := e.part(r.ID)
		e.pendRecs[pt] = append(e.pendRecs[pt], rec)
		e.pending.Store(true)
	} else {
		e.records = append(e.records, rec)
		if e.cfg.OnRecord != nil {
			e.cfg.OnRecord(rec)
		}
	}
	r.CtrlSend(p, replyTo, tagCkptDoneBase+epoch, doneBytes, epoch)
}

// flushPending runs at every kernel round barrier (all partitions
// quiesced): it drains the per-partition record and cut buffers into the
// engine's record list and the OnCut/OnRecord callbacks, sorted by
// completion time with (epoch, rank) tie-breaks — a total order that
// depends only on the simulation, never on worker scheduling.
func (e *Engine) flushPending() {
	if !e.pending.Load() {
		return
	}
	e.pending.Store(false)
	var cuts []Cut
	for pt := range e.pendCuts {
		cuts = append(cuts, e.pendCuts[pt]...)
		e.pendCuts[pt] = e.pendCuts[pt][:0]
	}
	if len(cuts) > 0 {
		sort.Slice(cuts, func(i, j int) bool {
			a, b := &cuts[i], &cuts[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.Epoch != b.Epoch {
				return a.Epoch < b.Epoch
			}
			return a.Rank < b.Rank
		})
		for _, c := range cuts {
			e.cfg.OnCut(c)
		}
	}
	var recs []ckpt.Record
	for pt := range e.pendRecs {
		recs = append(recs, e.pendRecs[pt]...)
		e.pendRecs[pt] = e.pendRecs[pt][:0]
	}
	if len(recs) > 0 {
		sort.Slice(recs, func(i, j int) bool {
			a, b := &recs[i], &recs[j]
			if a.End != b.End {
				return a.End < b.End
			}
			if a.Epoch != b.Epoch {
				return a.Epoch < b.Epoch
			}
			return a.Rank < b.Rank
		})
		e.records = append(e.records, recs...)
		if e.cfg.OnRecord != nil {
			for _, rec := range recs {
				e.cfg.OnRecord(rec)
			}
		}
	}
}

// ctrlBarrier is a dissemination barrier over the control plane.
func (e *Engine) ctrlBarrier(p *sim.Proc, r *mpi.Rank, members []int, tagBase int) {
	n := len(members)
	if n <= 1 {
		return
	}
	me := -1
	for i, m := range members {
		if m == r.ID {
			me = i
			break
		}
	}
	if me < 0 {
		panic("core: barrier caller not in member list")
	}
	for k, round := 1, 0; k < n; k, round = k*2, round+1 {
		to := members[(me+k)%n]
		from := members[(me-k+n)%n]
		r.CtrlSend(p, to, tagBase+round, bookmarkBytes, nil)
		r.CtrlRecv(p, from, tagBase+round)
	}
}
