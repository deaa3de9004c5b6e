package mpi

// Collectives are decomposed to point-to-point messages (as LAM/MPI's
// collectives are), so tracing, logging, and freeze gates observe every
// byte that actually crosses the network.
//
// Each collective call site must use a distinct op tag for concurrent
// collectives over overlapping rank sets; tags are folded into a reserved
// range so they never collide with application point-to-point traffic.

// collTag encodes an operation tag and an internal round number.
func collTag(op, round int) int { return tagCollBase + op*64 + round }

// indexOf returns the position of id in group, or -1.
func indexOf(group []int, id int) int {
	for i, g := range group {
		if g == id {
			return i
		}
	}
	return -1
}

// Bcast broadcasts bytes from root through a binomial tree over group.
// Non-root ranks block until their copy arrives; internal ranks forward.
func (r *Rank) Bcast(root int, group []int, op int, bytes int64) {
	n := len(group)
	if n <= 1 {
		return
	}
	me := indexOf(group, r.ID)
	rootIdx := indexOf(group, root)
	if me < 0 || rootIdx < 0 {
		panic("mpi: Bcast rank or root not in group")
	}
	vrank := (me - rootIdx + n) % n
	// Climb: receive from parent (the rank that differs in our lowest set
	// bit). The root has no set bits and receives nothing.
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := (vrank - mask + rootIdx) % n
			r.recvFree(group[parent], collTag(op, 0))
			break
		}
		mask <<= 1
	}
	// Descend: send to children at vrank+mask for each mask below the bit
	// where we received (or below n for the root), in decreasing order.
	for mask >>= 1; mask >= 1; mask >>= 1 {
		if child := vrank + mask; child < n {
			r.Send(group[(child+rootIdx)%n], collTag(op, 0), bytes, nil)
		}
	}
}

// Reduce reduces bytes from every rank in group to root via a binomial tree.
// The payload size is constant per hop (vector reduction).
func (r *Rank) Reduce(root int, group []int, op int, bytes int64) {
	n := len(group)
	if n <= 1 {
		return
	}
	me := indexOf(group, r.ID)
	rootIdx := indexOf(group, root)
	if me < 0 || rootIdx < 0 {
		panic("mpi: Reduce rank or root not in group")
	}
	vrank := (me - rootIdx + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			// Send partial result to parent and stop.
			parent := (vrank - mask + rootIdx) % n
			r.Send(group[parent], collTag(op, 1), bytes, nil)
			return
		}
		// Receive from child if it exists.
		child := vrank + mask
		if child < n {
			r.recvFree(group[(child+rootIdx)%n], collTag(op, 1))
		}
		mask <<= 1
	}
}

// Allreduce reduces bytes across group and distributes the result: a
// binomial reduce to group[0] followed by a binomial broadcast.
func (r *Rank) Allreduce(group []int, op int, bytes int64) {
	if len(group) <= 1 {
		return
	}
	r.Reduce(group[0], group, op, bytes)
	r.Bcast(group[0], group, op+1, bytes)
}

// RingBcastPipelined broadcasts bytes from root around group as a pipeline
// ring (HPL's "increasing ring" panel broadcast): root sends to its
// successor and each rank forwards to the next, with the payload split into
// chunks that are forwarded as they arrive (HPL's panel broadcasts stream in
// block columns). The ring completes in ~ (n-1+chunks-1)/chunks of the
// store-and-forward time instead of (n-1) full transfers.
func (r *Rank) RingBcastPipelined(root int, group []int, op int, bytes int64, chunks int) {
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks > 32 {
		chunks = 32
	}
	me := indexOf(group, r.ID)
	rootIdx := indexOf(group, root)
	if me < 0 || rootIdx < 0 {
		panic("mpi: RingBcastPipelined rank or root not in group")
	}
	vrank := (me - rootIdx + n) % n
	chunk := bytes / int64(chunks)
	if chunk <= 0 {
		chunk, chunks = bytes, 1
	}
	for c := 0; c < chunks; c++ {
		sz := chunk
		if c == chunks-1 {
			sz = bytes - chunk*int64(chunks-1)
		}
		if vrank != 0 {
			r.recvFree(group[(me-1+n)%n], collTag(op, 3+c))
		}
		if vrank != n-1 {
			r.Send(group[(me+1)%n], collTag(op, 3+c), sz, nil)
		}
	}
}
