package harness

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

var worldSink *mpi.World

// BenchmarkNewWorld16384 times building one 16384-rank world — kernel,
// Modern cluster with every node's noise stream, MPI layer — the serial
// work every cell at that scale does before its first event.
func BenchmarkNewWorld16384(b *testing.B) {
	cfg := cluster.Modern()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, worldSink = newWorld(int64(i+1), 16384, cfg)
	}
}
