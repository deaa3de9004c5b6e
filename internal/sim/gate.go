package sim

// Gate is a freeze point. While closed, any process calling Pass parks until
// the gate reopens. Checkpoint protocols use gates to implement "Lock MPI":
// the per-rank daemon closes the gate and the application thread parks at its
// next send, receive-completion, or compute-slice boundary.
type Gate struct {
	label   Label
	closed  bool
	waiters []*Proc
}

// NewGate returns an open gate, labelled l in deadlock reports, by value
// (see NewCounter).
func NewGate(l Label) Gate { return Gate{label: l} }

// Close closes the gate. Processes reaching Pass afterwards park.
func (g *Gate) Close() { g.closed = true }

// Open reopens the gate and wakes all parked processes (in park order).
func (g *Gate) Open() {
	g.closed = false
	for _, p := range g.waiters {
		p.pt.scheduleWake(p.pt.now, p)
	}
	g.waiters = nil
}

// Pass returns immediately if the gate is open; otherwise it parks p until
// the gate opens. Pass re-checks the gate after waking, so a process cannot
// slip through a gate that was closed again in the same instant.
func (g *Gate) Pass(p *Proc) {
	for g.closed {
		g.waiters = append(g.waiters, p)
		p.block("gate", &g.label)
	}
}
