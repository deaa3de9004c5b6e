package sim

import "iter"

// Proc is a simulated process: its body runs on a coroutine (iter.Pull)
// resumed by its partition's home loop. Within a partition, exactly one
// Proc executes at any instant; a Proc runs until it calls a blocking
// primitive (Hold, Mailbox.RecvKeyed, Resource.Use, Gate.Pass,
// Counter.AwaitAtLeast), at which point it runs its partition's event loop
// itself and either keeps running or yields the next runnable process to
// the home loop (see Kernel).
//
// A process holds a coroutine only while its body runs. It gets one at its
// first resume, not at spawn. A body that returns after arming a wait
// without a stack (Mailbox.RecvFunc, WakeAt) leaves the process dormant
// rather than done: its coroutine goes back to its partition, and its next
// wakeup runs the body again from the top, on one of the partition's idle
// coroutines or a new one. A dormant process counts as blocked, exactly
// like one suspended in a primitive.
type Proc struct {
	pt    *partition
	label Label
	body  func(*Proc)
	co    *coroutine // runs p's body; nil while p has none
	// co's next and yield, copied here so that a switch, the hottest path
	// in the kernel, loads them from the process it switches to or from.
	next    func() (*Proc, bool)
	yield   func(*Proc) bool
	token   uint64 // wake token; advanced on every resume
	blocked bool
	done    bool
	daemon  bool // daemons do not count toward deadlock detection
	armed   bool // a wait is armed: a return from the body leaves p dormant

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

// coroutine runs process bodies, one at a time. A process is handed one at
// its first resume, and again at its first resume after each time it went
// dormant. When a body goes dormant, the coroutine goes back to the
// process's partition, which hands it to the next process that needs one:
// so a partition makes a coroutine only when more of its bodies run at once
// than before, and a reused one keeps the stack it has grown. When a body
// finishes, or panics, or Shutdown unwinds it, its coroutine ends with it.
type coroutine struct {
	next func() (*Proc, bool) // resume it until it yields
	stop func()               // unwind it (Shutdown)
	p    *Proc                // the process whose body it runs; nil while idle
}

// wentDormant is what a coroutine yields when the body it ran has gone
// dormant.
var wentDormant = new(Proc)

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

// take hands p a coroutine to run its body from the top: an idle one from
// its partition, or a new one. p has none: it was never resumed, or it is
// dormant.
func (p *Proc) take() {
	pt := p.pt
	var c *coroutine
	if n := len(pt.idle); n > 0 {
		c = pt.idle[n-1]
		pt.idle = pt.idle[:n-1]
	} else {
		c = new(coroutine)
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p = p
	p.co, p.next = c, c.next
}

// loop is a coroutine's life: it runs the body of the process it was
// handed and, if the body went dormant, goes back to that process's
// partition and yields wentDormant until it is handed another. Any other
// end of the body ends the coroutine: a panic propagates out of it to the
// home loop that resumed it, and from there out of Run.
func (c *coroutine) loop(yield func(*Proc) bool) {
	for {
		p := c.p
		p.yield = yield
		returned := p.run()
		p.co, p.next, p.yield, c.p = nil, nil, nil, nil
		if !returned || p.done {
			return
		}
		p.pt.idle = append(p.pt.idle, c)
		if !yield(wentDormant) {
			return // stopped while idle (Shutdown)
		}
	}
}

// run runs p's body from the top and reports whether it returned, rather
// than being unwound by Shutdown (killed{}). A body that returns with a
// wait armed leaves p dormant; otherwise p is done, and so is a process
// unwound. Any other panic propagates, and p lets go of its coroutine,
// which dies with it.
func (p *Proc) run() (returned bool) {
	defer func() {
		r := recover()
		if _, ok := r.(killed); r != nil && !ok {
			p.co, p.next, p.yield = nil, nil, nil
			panic(r)
		}
		if returned = r == nil; returned && p.armed {
			p.blocked = true
			return
		}
		p.done = true
		if !p.daemon {
			p.pt.live--
		}
	}()
	p.blocked, p.armed = false, false
	p.verb, p.on = "running", nil
	p.body(p)
	return
}

// arm marks p as waiting without a stack, blocked in verb on the primitive
// labelled on (nil: none): if its body returns now, p is dormant.
func (p *Proc) arm(verb string, on *Label) {
	p.armed = true
	p.verb, p.on = verb, on
}

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
		// continuing the (finished) simulation. Recovered in run.
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

// WakeAt is Hold without a stack: it schedules p's next resumption at
// virtual time t (now, if t has passed), in the slot a Hold would take, and
// arms p. Call it from p's own body just before the body returns, or from
// kernel context while p is dormant — from a Mailbox.RecvFunc callback,
// typically. Either way p sleeps dormant until t, and its body then runs
// again from the top. A process suspended in a primitive must not be woken
// this way: WakeAt panics.
func (p *Proc) WakeAt(t Time) {
	if p.blocked && p.co != nil {
		panic("sim: WakeAt on " + p.Name() + ", which is suspended in a primitive")
	}
	p.pt.scheduleWake(t, p)
	p.arm("hold", nil)
}
