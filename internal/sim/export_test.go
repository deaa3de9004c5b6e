package sim

// PoolMembers reports how many goroutines ran the windows of the kernel's
// last Run: Run's own goroutine plus the pool's helpers.
func (k *Kernel) PoolMembers() int { return k.members }
