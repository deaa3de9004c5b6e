// Package mpi provides an MPI-like message-passing layer on top of the
// simulated cluster: ranks with blocking point-to-point sends/receives
// (source and tag matching, any-source), collectives decomposed to
// point-to-point (as LAM/MPI does), and the interposition points a
// checkpoint/restart protocol needs:
//
//   - Hooks: a callback before every application send (message logging,
//     piggybacking) and at every delivery (counter updates, log GC) —
//     the moral equivalent of LAM/MPI's CRTCP SSI module;
//   - Gate / SendGate: per-rank freeze points ("Lock MPI"; send-only
//     freeze for Chandy–Lamport protocols);
//   - one record per communicating peer, holding the transport byte
//     counter that coordinated checkpoints drain in-transit messages by;
//   - a control plane (CtrlSend/CtrlRecv, and CtrlRecvFunc for a daemon
//     that waits without a stack) for protocol daemons that bypasses
//     hooks, gates, and application counters but still pays network costs.
//
// The send path is allocation-free in steady state, on both planes: message
// envelopes are recycled through a per-world free list once their receiver
// consumes them (collectives, Sendrecv and CtrlRecv recycle implicitly; Recv
// and CtrlRecvFunc hand ownership to the caller), and deliveries are
// scheduled through a single pre-bound kernel callback instead of a fresh
// closure per message.
package mpi

import (
	"sort"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// AnySource matches a message from any sender in Recv.
const AnySource = sim.AnyKey

// Tag bases. Application workloads use small non-negative tags; collectives
// and the control plane use reserved ranges so they never cross-match.
const (
	tagCollBase = 1 << 20 // collective internals
	TagCtrlBase = 1 << 24 // protocol control plane
)

// Msg is a message envelope. Payload is optional structured data (used by
// tests and the restart protocol); Bytes is what the network model charges.
// Val is the envelope's one integer: on a control message, the value
// CtrlSend was given (an epoch, a bookmark's byte count); on an
// application message, the sender's piggybacked RR volume if HasPB is set.
//
// Every envelope, application or control, comes from the world's pool and
// has one owner at a time: the sender until it is delivered, then the
// receiver. An envelope obtained from Recv or CtrlRecvFunc is owned by the
// caller until it is returned to the pool with World.Free (or until the
// world is dropped). Never retain an envelope after freeing it.
type Msg struct {
	Src, Dst, Tag int
	Bytes         int64
	Payload       any
	Val           int64
	SendTime      sim.Time
	ArriveTime    sim.Time
	HasPB         bool
	Ctrl          bool

	// pooled marks an envelope currently sitting in the free list, whose
	// Payload links to the next pooled envelope, so a double Free is
	// detected instead of corrupting the list (Stats records it; the
	// invariant oracle fails the run).
	pooled bool
}

// Hooks is implemented by checkpoint protocols to interpose on application
// traffic.
type Hooks interface {
	// BeforeSend runs in the sending process's context just before the
	// message enters the network. It may mutate the message (piggyback)
	// and returns any extra sender-side delay (e.g. the memory copy of
	// sender-based logging). It must not block.
	BeforeSend(r *Rank, m *Msg) sim.Time
	// OnDeliver runs in kernel context when the message reaches the
	// destination's transport (before the application receives it). It
	// must not block.
	OnDeliver(dst *Rank, m *Msg)
}

// Tracer is implemented by trace observers (trace.Recorder for full
// per-record traces, trace.CommMatrix for streaming pair aggregation).
type Tracer interface {
	Send(t sim.Time, src, dst, tag int, bytes int64)
	Deliver(t sim.Time, src, dst, tag int, bytes int64)
}

// World is a set of ranks on a cluster.
type World struct {
	K      *sim.Kernel
	C      *cluster.Cluster
	N      int
	Ranks  []*Rank
	Hooks  Hooks
	Tracer Tracer

	// SliceSeconds is the compute-slice granularity: the maximum stretch
	// of computation between freeze-point checks. Smaller values make
	// checkpoints lock faster but cost more simulation events.
	SliceSeconds float64

	// Partition map (SetPartitions): partOf[rank] is the kernel partition
	// each rank runs in; nil/nparts ≤ 1 is the classic serial world.
	partOf []int
	nparts int

	// shards holds the envelope free list and message-path accounting,
	// one shard per partition. Shard p is touched only from partition p's
	// execution context (senders pool from their own shard; receivers
	// free into theirs), so no locking is needed even mid-round.
	shards []shard

	// arrive is the pre-bound delivery handler passed to sim.Kernel.PartAt1,
	// built once so the per-message schedule allocates nothing.
	// arriveRemote is its cross-partition prologue: it fires in the
	// destination partition at wire-available time and books the
	// receiver-side NIC there (the half of Transfer the sender's
	// partition must not touch).
	arrive       func(any)
	arriveRemote func(any)

	// Rank-finish accounting for partitioned runs: finCount[p] is written
	// only from partition p; the round barrier folds it into finDone,
	// giving readers in any partition a stable, deterministic
	// "all ranks finished as of the last round" view (AllFinishedView).
	// finNew marks a round in which some rank finished; the fold skips the
	// rest.
	finCount []int
	finDone  int
	finNew   atomic.Bool

	metrics *Metrics // nil unless observing; see SetMetrics
}

// shard is one partition's slice of the world's mutable shared state,
// padded out to its own cache line so partitions never false-share.
type shard struct {
	stats Stats
	// free heads the shard's free list, threaded through the pooled
	// envelopes' Payload fields: pushing and popping never grow a slice,
	// and the list costs no memory beyond the envelopes it holds.
	free *Msg
	// lat buffers the window's mpi_msg_latency_seconds samples on a
	// partitioned world with metrics attached; the round barrier observes
	// them in partition order (see observeLatencies).
	lat []float64
	_   [64]byte
}

// Stats is the world's message-path accounting, maintained unconditionally
// (a handful of integer increments on paths that already touch the world).
// The message counts cover the application plane only; the pool counts
// cover every envelope, application and control alike. The simcheck
// invariant oracle reads it through harness.Result: for a completed run
// Sends == Delivered == Consumed, the free-list identity FreeLen ==
// PoolFreed − PoolReused holds, and DoubleFrees is zero.
type Stats struct {
	Sends       int // application messages entering the network
	Delivered   int // application messages handed to a destination transport
	Consumed    int // application messages consumed by Recv
	PoolCreated int // envelopes of either plane heap-allocated (free list misses)
	PoolReused  int // envelopes of either plane recycled from the free list
	PoolFreed   int // envelopes of either plane returned to the pool via Free
	DoubleFrees int // Free calls on an envelope already in the pool
	FreeLen     int // envelopes on the free lists (counted by World.Stats)
}

// Stats returns a snapshot of the world's message-path accounting, summed
// across partition shards. The free-list identity FreeLen == PoolFreed −
// PoolReused holds on the sum: every Free pushes an envelope into exactly
// one shard and every reuse pops from exactly one. FreeLen is counted by
// walking the lists, so a list cut short by a write to a pooled envelope
// breaks the identity; the walk stops one past the accounted length, so a
// corrupted list cannot hold it up.
func (w *World) Stats() Stats {
	var s Stats
	for i := range w.shards {
		sh := &w.shards[i]
		s.Sends += sh.stats.Sends
		s.Delivered += sh.stats.Delivered
		s.Consumed += sh.stats.Consumed
		s.PoolCreated += sh.stats.PoolCreated
		s.PoolReused += sh.stats.PoolReused
		s.PoolFreed += sh.stats.PoolFreed
		s.DoubleFrees += sh.stats.DoubleFrees
		n, want := 0, sh.stats.PoolFreed-sh.stats.PoolReused
		for m := sh.free; m != nil && n <= want; m, _ = m.Payload.(*Msg) {
			n++
		}
		s.FreeLen += n
	}
	return s
}

// Part returns the kernel partition rank runs in (0 on a serial world).
func (w *World) Part(rank int) int {
	if w.partOf == nil {
		return 0
	}
	return w.partOf[rank]
}

// Parts returns the number of kernel partitions (1 on a serial world).
func (w *World) Parts() int { return max(w.nparts, 1) }

// SetPartitions splits the world's kernel into nparts partitions, with the
// cluster's network latency as lookahead, and installs the rank→partition
// map. Call before anything is spawned; partOf must map every rank to
// [0, nparts). nparts ≤ 1 (or not calling at all) keeps the serial world.
func (w *World) SetPartitions(partOf []int, nparts int) {
	if nparts <= 1 {
		return
	}
	if len(partOf) != w.N {
		panic("mpi: partition map length != world size")
	}
	w.K.SetPartitions(nparts, w.C.Cfg.Latency)
	w.partOf, w.nparts = partOf, nparts
	w.shards = make([]shard, nparts)
	w.finCount = make([]int, nparts)
	w.K.OnBarrier(func() {
		w.observeLatencies()
		if !w.finNew.Load() {
			return
		}
		w.finNew.Store(false)
		n := 0
		for _, c := range w.finCount {
			n += c
		}
		w.finDone = n
	})
}

// observeLatencies feeds the latency samples the partitions buffered during
// the round to the histogram, in partition order and, within a partition,
// in delivery order: a sum and a reservoir that do not depend on how pool
// members interleaved. It runs at the round barrier.
func (w *World) observeLatencies() {
	mm := w.metrics
	if mm == nil {
		return
	}
	for i := range w.shards {
		sh := &w.shards[i]
		for _, v := range sh.lat {
			mm.MsgLatency.Observe(v)
		}
		sh.lat = sh.lat[:0]
	}
}

// AllFinishedView reports whether every rank's application body has
// returned. On a serial world it reads the live flags; on a partitioned one
// it reads the count committed at the last round barrier — stable within a
// window, race-free, and worker-count independent (the round structure is).
func (w *World) AllFinishedView() bool {
	if w.nparts <= 1 {
		for _, r := range w.Ranks {
			if !r.Finished {
				return false
			}
		}
		return true
	}
	return w.finDone == w.N
}

// Queued returns the messages still sitting unmatched in application and
// control mailboxes. After a completed run the application plane must be
// empty (every send matched by exactly one receive); the control plane may
// legitimately hold stragglers (daemons wait forever for their next
// request).
func (w *World) Queued() (app, ctrl int) {
	for _, r := range w.Ranks {
		app += r.mbox.Len()
		ctrl += r.ctrl.Len()
	}
	return app, ctrl
}

// PairFlow is the per-ordered-pair byte accounting for one communicating
// (src → dst) channel: bytes the sender pushed, bytes the destination
// transport received, and bytes the destination application consumed. For a
// completed run all three agree on every flow.
type PairFlow struct {
	Src, Dst              int
	Sent, Recvd, Consumed int64
}

// PairFlows enumerates every ordered pair that saw application traffic,
// sorted by (Src, Dst). Cost is O(communicating pairs), not O(n²) — usable
// at 16384 ranks.
func (w *World) PairFlows() []PairFlow {
	// A flow exists once either end holds a record of it: the sender's
	// from its first send, the receiver's from its first delivery or
	// drain. Enumerate from both ends.
	var flows []PairFlow
	seen := map[[2]int]bool{}
	add := func(src, dst int) {
		k := [2]int{src, dst}
		if seen[k] {
			return
		}
		seen[k] = true
		d := w.Ranks[dst]
		flows = append(flows, PairFlow{
			Src: src, Dst: dst,
			Sent:     w.Ranks[src].SentBytes(dst),
			Recvd:    d.RecvdBytes(src),
			Consumed: d.AppRecvdBytes(src),
		})
	}
	for _, r := range w.Ranks {
		for q, ch := range r.chans {
			if ch.sends {
				add(r.ID, q)
			}
			if ch.rxUsed || ch.consumes {
				add(q, r.ID)
			}
		}
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
	return flows
}

// NewWorld creates a world of n ranks, one per cluster node.
func NewWorld(k *sim.Kernel, c *cluster.Cluster, n int) *World {
	if n > len(c.Nodes) {
		panic("mpi: more ranks than cluster nodes")
	}
	w := &World{K: k, C: c, N: n, SliceSeconds: 0.25, shards: make([]shard, 1)}
	w.arrive = func(v any) { w.deliverArrived(v.(*Msg)) }
	w.arriveRemote = func(v any) {
		// Fires in the destination's partition at wire-available time:
		// book the receiver-side NIC here and schedule the arrival.
		m := v.(*Msg)
		d := w.Ranks[m.Dst]
		dp := w.partOf[m.Dst]
		arr := w.C.RecvSide(d.Node, w.K.PartNow(dp), m.Bytes)
		w.K.PartAt1(dp, arr, w.arrive, m)
	}
	w.Ranks = make([]*Rank, n)
	for i := range w.Ranks {
		w.Ranks[i] = &Rank{
			W:        w,
			ID:       i,
			Node:     c.Nodes[i],
			mbox:     sim.NewMailbox(sim.L("rank", i)),
			ctrl:     sim.NewMailbox(sim.L("ctrl", i)),
			Gate:     sim.NewGate(sim.L("gate", i)),
			SendGate: sim.NewGate(sim.L("sendgate", i)),
		}
	}
	return w
}

// newMsg returns a zeroed envelope from the sending partition's free list
// (or the heap).
func (w *World) newMsg(part int) *Msg {
	sh := &w.shards[part]
	if m := sh.free; m != nil {
		sh.free, _ = m.Payload.(*Msg)
		m.Payload, m.pooled = nil, false
		sh.stats.PoolReused++
		return m
	}
	sh.stats.PoolCreated++
	return new(Msg)
}

// Free returns an envelope to the world's pool. The caller must hold the
// only live reference: the envelope's fields (including Payload and Val) are
// cleared and the memory is reused by a future send on either plane. Freeing
// an envelope already in the pool is a bug; it is recorded in
// Stats.DoubleFrees and the envelope is not pushed a second time.
func (w *World) Free(m *Msg) {
	// The freeing context is the receiver's: envelopes are freed after
	// they are received, so shard by the destination's partition — read
	// before the envelope is cleared.
	sh := &w.shards[w.Part(m.Dst)]
	if m.pooled {
		sh.stats.DoubleFrees++
		return
	}
	*m = Msg{Payload: sh.free, pooled: true}
	sh.free = m
	sh.stats.PoolFreed++
}

// Launch spawns one application process per rank (into its partition, when
// partitioned) running body and records per-rank finish times. The caller
// then runs the kernel.
func (w *World) Launch(body func(r *Rank)) {
	for _, r := range w.Ranks {
		r := r
		part := w.Part(r.ID)
		r.Proc = w.K.SpawnIn(part, sim.L("rank", r.ID), func(p *sim.Proc) {
			body(r)
			r.FinishTime = p.Now()
			r.Finished = true
			if w.finCount != nil {
				w.finCount[part]++
				w.finNew.Store(true)
			}
		})
	}
}

// Rank is one MPI process. Its mailboxes and gates are embedded, so a rank
// is one allocation until it talks to a peer.
//
// Per-peer transport state is sparse: a world of n ranks has n² potential
// channels, but real workloads touch only a few peers per rank, and eager
// per-peer arrays are what used to cap worlds at a few thousand ranks
// (16384 ranks would mean 800M array slots before the first event fires).
// A rank keeps one channel record per peer it has sent to, received from or
// drained, allocated on first use.
type Rank struct {
	W    *World
	ID   int
	Node *cluster.Node
	Proc *sim.Proc

	// Gate is the full freeze point: while closed, the rank can neither
	// send nor complete receives nor compute. SendGate freezes sends only
	// (Chandy–Lamport-style protocols).
	Gate     sim.Gate
	SendGate sim.Gate

	mbox  sim.Mailbox
	ctrl  sim.Mailbox
	chans map[int]*channel // per-peer records, by peer rank

	FinishTime sim.Time
	Finished   bool
}

// channel is a rank's record of application traffic with one peer, in both
// directions. The flags say which sides of the record are in use: what
// PairFlows and ForEachPeer enumerate depends on them, not on the counts,
// since a zero-byte message still opens a channel.
type channel struct {
	rx       sim.Counter // transport bytes received from the peer
	sent     int64       // transport bytes sent to the peer
	appRecvd int64       // bytes the application consumed from the peer

	sends, consumes, rxUsed bool
}

// peer returns the record for peer q, creating it on first use.
func (r *Rank) peer(q int) *channel {
	ch := r.chans[q]
	if ch == nil {
		ch = &channel{rx: sim.NewCounter(sim.L("rx", r.ID, q))}
		if r.chans == nil {
			r.chans = make(map[int]*channel, 8)
		}
		r.chans[q] = ch
	}
	return ch
}

// SentBytes returns the application bytes this rank has pushed into the
// network toward dst (including in-flight bytes).
func (r *Rank) SentBytes(dst int) int64 {
	if ch := r.chans[dst]; ch != nil {
		return ch.sent
	}
	return 0
}

// addSent accumulates transport bytes toward dst.
func (r *Rank) addSent(dst int, b int64) {
	ch := r.peer(dst)
	ch.sent += b
	ch.sends = true
}

// RecvdCounter returns the transport-level received-bytes counter for
// messages from src. Protocols drain channels by awaiting it.
func (r *Rank) RecvdCounter(src int) *sim.Counter {
	ch := r.peer(src)
	ch.rxUsed = true
	return &ch.rx
}

// RecvdBytes returns the transport-level bytes received from src (delivered
// to this node, whether or not the application has consumed them).
func (r *Rank) RecvdBytes(src int) int64 {
	if ch := r.chans[src]; ch != nil {
		return ch.rx.Value()
	}
	return 0
}

// AppRecvdBytes returns the bytes the application has actually consumed
// (completed Recv calls) from src. This is Algorithm 1's R_X: a frozen rank
// stops consuming, so in-flight and buffered messages at a checkpoint are
// not covered by the checkpoint and must be replayed on restart.
func (r *Rank) AppRecvdBytes(src int) int64 {
	if ch := r.chans[src]; ch != nil {
		return ch.appRecvd
	}
	return 0
}

// addAppRecvd accumulates application-consumed bytes from src.
func (r *Rank) addAppRecvd(src int, b int64) {
	ch := r.peer(src)
	ch.appRecvd += b
	ch.consumes = true
}

// ForEachPeer calls f for every peer this rank has sent application traffic
// to or consumed application traffic from, in unspecified order.
// Checkpoint protocols use it to record per-peer cuts without scanning all
// n potential channels.
func (r *Rank) ForEachPeer(f func(peer int, sent, appRecvd int64)) {
	for q, ch := range r.chans {
		if ch.sends || ch.consumes {
			f(q, ch.sent, ch.appRecvd)
		}
	}
}

// Now returns the current virtual time of the rank's partition.
func (r *Rank) Now() sim.Time { return r.W.K.PartNow(r.W.Part(r.ID)) }
