package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// worldAllocsPerRank bounds what building one rank of a GP1 world
// allocates. Labels instead of formatted names, embedded primitives and
// lazily made per-peer state brought it from 68 objects per rank to 35, and
// coroutines made at a process's first resume rather than at spawn bring
// it to 12: the two coroutines a rank runs (its body and its checkpoint
// daemon) cost 23 of those 35 when they were made eagerly, so even one of
// them made at spawn again fails the bound.
const worldAllocsPerRank = 14

// TestWorldAllocsPerRank builds a 1024-rank world the way a GP1 cell does
// (kernel, Modern cluster with every node's noise stream, message layer,
// GP1 engine with its daemons, launched ranks) and holds its allocations
// per rank under worldAllocsPerRank.
func TestWorldAllocsPerRank(t *testing.T) {
	const n = 1024
	allocs := testing.AllocsPerRun(3, func() {
		k := sim.NewKernel(1)
		w := mpi.NewWorld(k, cluster.New(k, n, cluster.Modern()), n)
		NewEngine(w, DefaultConfig(group.Singletons(n), nil))
		w.Launch(func(*mpi.Rank) {})
		k.Shutdown()
	})
	if per := allocs / n; per > worldAllocsPerRank {
		t.Errorf("building a %d-rank GP1 world allocates %.1f objects per rank, want at most %d", n, per, worldAllocsPerRank)
	}
}
