package sim

// Proc is a simulated process: a coroutine (iter.Pull) resumed by its
// partition's home loop. Within a partition, exactly one Proc executes at any
// instant; a Proc runs until it calls a blocking primitive (Hold,
// Mailbox.RecvKeyed, Resource.Use, Gate.Pass, Counter.AwaitAtLeast), at which
// point it runs its partition's event loop itself and either keeps running
// or yields the next runnable process to the home loop (see Kernel).
type Proc struct {
	pt      *partition
	name    string
	next    func() (*Proc, bool) // resume the coroutine until it yields or ends
	stop    func()               // unwind the suspended coroutine (Shutdown)
	yield   func(*Proc) bool     // suspend, naming the process to resume next
	token   uint64               // wake token; advanced on every resume
	blocked bool
	done    bool
	daemon  bool   // daemons do not count toward deadlock detection
	state   string // human-readable blocked state, for deadlock reports

	// Reusable waiter slots. A process blocks on at most one primitive at
	// a time, so embedding the waiters here makes registering with a
	// mailbox or counter allocation-free.
	mbw mboxWaiter
	cw  counterWaiter
}

// Name returns the process's name.
func (p *Proc) Name() string { return p.name }

// Now returns the process's partition's current virtual time.
func (p *Proc) Now() Time { return p.pt.now }

// block suspends the process with the given state description until the
// kernel resumes it. Callers must have arranged a wakeup (a scheduled event
// or registration with a mailbox/gate/counter) before calling block.
//
// The blocking process drives the event loop itself: if the next runnable
// event is this process's own wakeup, block returns without a switch;
// otherwise the process yields the one dispatch named (nil: none) to the
// home loop and stays suspended until the home loop resumes it.
func (p *Proc) block(state string) {
	p.state = state
	p.blocked = true
	if q := p.pt.dispatch(); q != p && !p.yield(q) {
		// Stopped by Kernel.Shutdown: unwind this coroutine instead of
		// continuing the (finished) simulation. Recovered in the spawn
		// wrapper.
		panic(killed{})
	}
	p.blocked = false
	p.state = "running"
}

// Hold advances the process's virtual time by d, modelling computation or a
// fixed delay. Negative durations are treated as zero.
func (p *Proc) Hold(d Time) {
	if d < 0 {
		d = 0
	}
	p.pt.scheduleWake(p.pt.now+d, p)
	p.block("hold")
}

// HoldUntil blocks until virtual time t (no-op if t is in the past).
func (p *Proc) HoldUntil(t Time) {
	if t <= p.pt.now {
		return
	}
	p.pt.scheduleWake(t, p)
	p.block("holdUntil")
}
