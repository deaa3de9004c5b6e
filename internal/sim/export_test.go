package sim

// PoolMembers reports how many goroutines ran the windows of the kernel's
// last Run: Run's own goroutine plus the pool's helpers.
func (k *Kernel) PoolMembers() int { return k.members }

// Coroutines reports how many coroutines the kernel holds: those running
// or suspended in a process's body, and the idle ones that bodies gave
// back. Each is a goroutine until Shutdown. Call it between Runs or from a
// global event, when no partition's window is open.
func (k *Kernel) Coroutines() int {
	n := 0
	for _, pt := range k.parts {
		n += len(pt.idle)
		for _, p := range pt.procs {
			if p.co != nil {
				n++
			}
		}
	}
	return n
}
