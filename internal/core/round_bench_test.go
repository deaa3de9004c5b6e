package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkCheckpointRound times two coordinated checkpoint epochs, back to
// back, at 4096 ranks in 64 groups of 64, on the group-partitioned kernel
// at one worker: every group's lock, bookmark exchange, drain, image write
// and finalize barrier, around a short ring workload whose in-flight bytes
// the drain waits out. The second epoch runs on the envelopes the first
// one's control messages returned to the pool. Building the world is not
// timed.
func BenchmarkCheckpointRound(b *testing.B) {
	const n, groups = 4096, 64
	f := group.Fixed(n, groups)
	partOf, nparts := PartitionPlan(f, groups)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := sim.NewKernel(1)
		w := mpi.NewWorld(k, cluster.New(k, n, cluster.Modern()), n)
		w.SetPartitions(partOf, nparts)
		wl := workload.NewSynthetic(n, 8)
		e := NewEngine(w, DefaultConfig(f, wl.ImageBytes))
		e.SchedulePeriodic(5*sim.Millisecond, 5*sim.Millisecond, 2)
		w.Launch(wl.Body)
		b.StartTimer()

		if err := k.Run(); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if e.Epochs() != 2 || len(e.Records()) != 2*n {
			b.Fatalf("epochs = %d, records = %d; want 2 epochs of %d records", e.Epochs(), len(e.Records()), n)
		}
		k.Shutdown()
		b.StartTimer()
	}
}
