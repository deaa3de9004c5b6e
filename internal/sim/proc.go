package sim

// Proc is a simulated process: a coroutine (iter.Pull) resumed by its
// partition's home loop. Within a partition, exactly one Proc executes at any
// instant; a Proc runs until it calls a blocking primitive (Hold,
// Mailbox.RecvKeyed, Resource.Use, Gate.Pass, Counter.AwaitAtLeast), at which
// point it runs its partition's event loop itself and either keeps running
// or yields the next runnable process to the home loop (see Kernel).
type Proc struct {
	pt      *partition
	label   Label
	next    func() (*Proc, bool) // resume the coroutine until it yields or ends
	stop    func()               // unwind the suspended coroutine (Shutdown)
	yield   func(*Proc) bool     // suspend, naming the process to resume next
	token   uint64               // wake token; advanced on every resume
	blocked bool
	done    bool
	daemon  bool // daemons do not count toward deadlock detection

	// The process's state for deadlock reports: a static verb and, while
	// blocked on a primitive, that primitive's label ("recv rank5").
	verb string
	on   *Label

	// Reusable waiter slots. A process blocks on at most one primitive at
	// a time, so embedding the waiters here makes registering with a
	// mailbox or counter allocation-free.
	mbw mboxWaiter
	cw  counterWaiter
}

// Name returns the process's name, formatted from its label.
func (p *Proc) Name() string { return p.label.String() }

// state formats the process's state for a deadlock report.
func (p *Proc) state() string {
	if p.on == nil {
		return p.verb
	}
	return p.verb + " " + p.on.String()
}

// Now returns the process's partition's current virtual time.
func (p *Proc) Now() Time { return p.pt.now }

// block suspends the process until the kernel resumes it, recording verb
// and the label of the primitive it waits on (nil: none) as its state.
// Callers must have arranged a wakeup (a scheduled event or registration
// with a mailbox/gate/counter) before calling block.
//
// The blocking process drives the event loop itself: if the next runnable
// event is this process's own wakeup, block returns without a switch;
// otherwise the process yields the one dispatch named (nil: none) to the
// home loop and stays suspended until the home loop resumes it.
func (p *Proc) block(verb string, on *Label) {
	p.verb, p.on = verb, on
	p.blocked = true
	if q := p.pt.dispatch(); q != p && !p.yield(q) {
		// Stopped by Kernel.Shutdown: unwind this coroutine instead of
		// continuing the (finished) simulation. Recovered in the spawn
		// wrapper.
		panic(killed{})
	}
	p.blocked = false
	p.verb, p.on = "running", nil
}

// Hold advances the process's virtual time by d, modelling computation or a
// fixed delay. Negative durations are treated as zero.
func (p *Proc) Hold(d Time) {
	if d < 0 {
		d = 0
	}
	p.pt.scheduleWake(p.pt.now+d, p)
	p.block("hold", nil)
}

// HoldUntil blocks until virtual time t (no-op if t is in the past).
func (p *Proc) HoldUntil(t Time) {
	if t <= p.pt.now {
		return
	}
	p.pt.scheduleWake(t, p)
	p.block("holdUntil", nil)
}
