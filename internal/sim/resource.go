package sim

// Resource models a FIFO server with a fixed service rate, such as a network
// interface or a disk. Requests are served in arrival order; a request of b
// bytes takes b/rate seconds of exclusive service. Resource keeps only the
// time at which the server becomes free, so booking is O(1).
//
// Two usage styles are supported:
//
//   - Use: the calling process blocks until its request completes (a process
//     writing its own checkpoint image to disk).
//   - ReserveAt: book capacity and obtain the completion time without
//     blocking (computing the delivery time of an in-flight message as it
//     passes through the receiver's NIC).
type Resource struct {
	label  Label
	rate   float64 // bytes per second
	freeAt Time
}

// NewResource returns a resource serving rate bytes per second, labelled l
// in deadlock reports, by value (see NewCounter).
func NewResource(l Label, rate float64) Resource {
	if rate <= 0 {
		panic("sim: Resource rate must be positive")
	}
	return Resource{label: l, rate: rate}
}

// serviceTime returns the time needed to serve n bytes.
func (r *Resource) serviceTime(n int64) Time {
	return Time(float64(n) / r.rate * float64(Second))
}

// ReserveAt books n bytes of service starting no earlier than t and returns
// the completion time. It never blocks.
func (r *Resource) ReserveAt(t Time, n int64) Time {
	if t < r.freeAt {
		t = r.freeAt
	}
	r.freeAt = t + r.serviceTime(n)
	return r.freeAt
}

// BlockUntil keeps the resource busy until at least t (backpressure: a
// streaming transfer occupies the local NIC until the remote side has
// drained it).
func (r *Resource) BlockUntil(t Time) {
	if t > r.freeAt {
		r.freeAt = t
	}
}

// Use books n bytes of service and blocks p until the request completes,
// returning the completion time.
func (r *Resource) Use(p *Proc, n int64) Time {
	end := r.ReserveAt(p.pt.now, n)
	p.pt.scheduleWake(end, p)
	p.block("resource", &r.label)
	return end
}
