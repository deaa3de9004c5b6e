package sim

// Counter is a monotone non-decreasing counter with await-at-least
// semantics. Checkpoint coordination uses one Counter per (sender, receiver)
// pair of transport bytes: draining a channel is "await received ≥ the
// sender's bookmarked sent count".
type Counter struct {
	label   Label
	v       int64
	waiters []*counterWaiter
}

// counterWaiter is a parked awaiter, embedded in Proc (a process awaits at
// most one counter at a time) so registering allocates nothing.
type counterWaiter struct {
	p      *Proc
	target int64
}

// NewCounter returns a counter starting at zero, labelled l in deadlock
// reports. Like every primitive it is returned by value, for its owner to
// embed; use it through a pointer to that one copy.
func NewCounter(l Label) Counter { return Counter{label: l} }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Add increases the counter by n (which must be non-negative) and wakes any
// waiter whose target is now reached. Add may be called from kernel context.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("sim: Counter.Add with negative value")
	}
	c.v += n
	if len(c.waiters) == 0 {
		return
	}
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if c.v >= w.target {
			w.p.pt.scheduleWake(w.p.pt.now, w.p)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// AwaitAtLeast blocks p until the counter reaches target. It returns
// immediately if the counter is already there.
func (c *Counter) AwaitAtLeast(p *Proc, target int64) {
	for c.v < target {
		p.cw = counterWaiter{p: p, target: target}
		c.waiters = append(c.waiters, &p.cw)
		p.block("counter", &c.label)
	}
}
