package mpi

import "repro/internal/sim"

// Send transmits an application message of size bytes to rank dst with the
// given tag, blocking the caller for the sender-side cost (freeze gates,
// logging delay, NIC serialization). Delivery happens asynchronously at the
// network-model arrival time. The envelope comes from the world's pool.
func (r *Rank) Send(dst, tag int, bytes int64, payload any) {
	p := r.Proc
	r.Gate.Pass(p)
	r.SendGate.Pass(p)
	sp := r.W.Part(r.ID)
	m := r.W.newMsg(sp)
	m.Src, m.Dst, m.Tag = r.ID, dst, tag
	m.Bytes, m.Payload = bytes, payload
	m.SendTime = r.Now()
	if h := r.W.Hooks; h != nil {
		if extra := h.BeforeSend(r, m); extra > 0 {
			p.Hold(extra)
		}
	}
	if tr := r.W.Tracer; tr != nil {
		tr.Send(r.Now(), m.Src, m.Dst, m.Tag, m.Bytes)
	}
	r.addSent(dst, bytes)
	r.W.shards[sp].stats.Sends++
	if mm := r.W.metrics; mm != nil {
		mm.Sends.Inc()
		mm.SendBytes.Add(bytes)
	}
	r.deliver(p, m)
}

// deliver pushes m through the network and schedules its arrival via the
// world's pre-bound handlers (no per-message closure). Within a partition
// (always, on a serial world) the transfer books both NICs at once; across
// a partition edge the sender books only its own NIC and stages the message
// for the destination partition at wire-available time — which, by
// construction, is at least one network latency in the future, satisfying
// the kernel's lookahead contract.
func (r *Rank) deliver(p *sim.Proc, m *Msg) {
	w := r.W
	sp, dp := w.Part(r.ID), w.Part(m.Dst)
	if sp != dp {
		avail := w.C.SendSide(p, r.Node, m.Bytes)
		w.K.CrossAt1(sp, dp, avail, w.arriveRemote, m)
		return
	}
	arr := w.C.Transfer(p, r.Node, w.Ranks[m.Dst].Node, m.Bytes)
	w.K.PartAt1(dp, arr, w.arrive, m)
}

// deliverArrived runs in kernel context at the message's arrival time: it
// updates transport counters, runs protocol hooks and tracers, and queues
// the message for the application.
func (w *World) deliverArrived(m *Msg) {
	d := w.Ranks[m.Dst]
	dp := w.Part(m.Dst)
	m.ArriveTime = w.K.PartNow(dp)
	if !m.Ctrl {
		w.shards[dp].stats.Delivered++
		d.RecvdCounter(m.Src).Add(m.Bytes)
		if h := w.Hooks; h != nil {
			h.OnDeliver(d, m)
		}
		if tr := w.Tracer; tr != nil {
			tr.Deliver(m.ArriveTime, m.Src, m.Dst, m.Tag, m.Bytes)
		}
		if mm := w.metrics; mm != nil {
			mm.Delivered.Inc()
			lat := (m.ArriveTime - m.SendTime).Seconds()
			if w.nparts > 1 {
				sh := &w.shards[dp]
				sh.lat = append(sh.lat, lat)
			} else {
				mm.MsgLatency.Observe(lat)
			}
		}
	}
	d.mailboxFor(m).PutKeyed(m, m.Src, m.Tag)
}

func (d *Rank) mailboxFor(m *Msg) *sim.Mailbox {
	if m.Ctrl {
		return &d.ctrl
	}
	return &d.mbox
}

// Recv blocks until an application message from src (or AnySource) with the
// given tag arrives, and returns it. If the rank is frozen when the message
// completes, the application parks at the freeze gate before consuming it —
// the message is delivered (it is part of the checkpointed state) but the
// application makes no further progress until the checkpoint finishes.
//
// The returned envelope is owned by the caller; return it to the pool with
// World.Free once consumed, or let it become garbage.
func (r *Rank) Recv(src, tag int) *Msg {
	m := r.mbox.RecvKeyed(r.Proc, src, tag).(*Msg)
	r.Gate.Pass(r.Proc)
	r.addAppRecvd(m.Src, m.Bytes)
	r.W.shards[r.W.Part(r.ID)].stats.Consumed++
	if mm := r.W.metrics; mm != nil {
		mm.Consumed.Inc()
	}
	return m
}

// recvFree receives a message and immediately recycles its envelope — for
// callers that need only the synchronization and accounting, not the
// message content (collectives, Sendrecv).
func (r *Rank) recvFree(src, tag int) {
	r.W.Free(r.Recv(src, tag))
}

// Sendrecv exchanges messages with a partner (send to dst, receive from src)
// without deadlocking: the send completes first (sends are asynchronous at
// the transport level), then the receive blocks. The received envelope is
// recycled; use Send and Recv directly when the message content matters.
func (r *Rank) Sendrecv(dst, sendTag int, bytes int64, src, recvTag int) {
	r.Send(dst, sendTag, bytes, nil)
	r.recvFree(src, recvTag)
}

// Compute burns flops of computation in slices, checking the freeze gate at
// every slice boundary so a checkpoint request can lock the rank promptly.
func (r *Rank) Compute(flops float64) {
	slice := r.W.SliceSeconds * r.Node.Cfg.FlopRate
	for flops > 0 {
		r.Gate.Pass(r.Proc)
		chunk := flops
		if chunk > slice {
			chunk = slice
		}
		r.Node.Compute(r.Proc, chunk)
		flops -= chunk
	}
}

// CtrlSend transmits a protocol control message from this rank's node,
// carrying the integer val in Msg.Val and payload, if any, in Msg.Payload.
// It bypasses freeze gates, hooks, tracing, and application counters, but
// pays full network costs. p is the calling daemon's process. Control
// envelopes are not pooled: daemons may hold them across further control
// traffic, and a free list would keep the peak of in-flight envelopes.
func (r *Rank) CtrlSend(p *sim.Proc, dst, tag int, bytes, val int64, payload any) {
	m := &Msg{
		Src: r.ID, Dst: dst, Tag: tag,
		Bytes: bytes, Val: val, Payload: payload,
		SendTime: r.Now(), Ctrl: true,
	}
	r.deliver(p, m)
}

// CtrlRecv blocks the daemon process p until a control message from src (or
// AnySource) with the given tag arrives.
func (r *Rank) CtrlRecv(p *sim.Proc, src, tag int) *Msg {
	return r.ctrl.RecvKeyed(p, src, tag).(*Msg)
}
