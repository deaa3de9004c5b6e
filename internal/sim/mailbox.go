package sim

// AnyKey matches any value in the first slot of a keyed receive (MPI's
// any-source).
const AnyKey = -1

// Mailbox is an unbounded message queue matched on keys: every message
// carries an (src, tag) integer pair, and a receiver waits for an exact tag
// from a given source (or AnyKey) — MPI's matching rule, with no closure per
// receive. Messages that match no current waiter queue up in FIFO order.
type Mailbox struct {
	label   Label
	items   []mboxItem
	waiters []*mboxWaiter
}

// mboxItem is one queued message plus its match keys.
type mboxItem struct {
	v    any
	a, b int
}

// mboxWaiter is a parked receiver. Waiters are embedded in Proc (a process
// waits on at most one mailbox at a time), so registering allocates nothing.
type mboxWaiter struct {
	p    *Proc
	a, b int
	got  any
	ok   bool
}

// keyMatches is the single definition of matching: exact second key, first
// key exact or AnyKey. Waiter matching and queued-item scans must agree on
// this, or a message could queue past a waiter that should have received
// it.
func keyMatches(a, b int, it *mboxItem) bool {
	return (a == AnyKey || a == it.a) && b == it.b
}

// NewMailbox returns an empty mailbox, labelled l in deadlock reports, by
// value (see NewCounter).
func NewMailbox(l Label) Mailbox { return Mailbox{label: l} }

// Len returns the number of queued (unmatched) messages.
func (m *Mailbox) Len() int { return len(m.items) }

// PutKeyed delivers v, carrying match keys (a, b) — typically an MPI
// (source, tag) pair — to the first waiter whose keys match, or queues it.
// PutKeyed never blocks and may be called from kernel context.
func (m *Mailbox) PutKeyed(v any, a, b int) {
	it := mboxItem{v: v, a: a, b: b}
	for i, w := range m.waiters {
		if keyMatches(w.a, w.b, &it) {
			w.got, w.ok = v, true
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			// Wake through the waiter's own partition: a mailbox is only
			// ever touched from its owner's partition, but the indirection
			// keeps the primitive partition-agnostic.
			w.p.pt.scheduleWake(w.p.pt.now, w.p)
			return
		}
	}
	m.items = append(m.items, it)
}

// RecvKeyed blocks p until a message with key (a, b) — a == AnyKey matching
// any first key — is available and returns it. Matching among queued
// messages is FIFO.
func (m *Mailbox) RecvKeyed(p *Proc, a, b int) any {
	for i := range m.items {
		if keyMatches(a, b, &m.items[i]) {
			return m.take(i)
		}
	}
	p.mbw = mboxWaiter{p: p, a: a, b: b}
	return m.wait(p)
}

// take removes and returns the i-th queued message.
func (m *Mailbox) take(i int) any {
	v := m.items[i].v
	m.items[i].v = nil
	m.items = append(m.items[:i], m.items[i+1:]...)
	return v
}

// wait parks p on its (already initialized) embedded waiter.
func (m *Mailbox) wait(p *Proc) any {
	w := &p.mbw
	m.waiters = append(m.waiters, w)
	p.block("recv", &m.label)
	if !w.ok {
		panic("sim: spurious wakeup in Mailbox.RecvKeyed")
	}
	v := w.got
	w.got, w.ok = nil, false
	return v
}
