package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkCheckpointRound times one coordinated checkpoint epoch at 4096
// ranks in 64 groups of 64, on the group-partitioned kernel at one worker:
// every group's lock, bookmark exchange, drain, image write and finalize
// barrier, around a short ring workload whose in-flight bytes the drain
// waits out. Building the world is not timed.
func BenchmarkCheckpointRound(b *testing.B) {
	const n, groups = 4096, 64
	f := group.Fixed(n, groups)
	partOf, nparts := PartitionPlan(f, groups)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := sim.NewKernel(1)
		ccfg := cluster.Modern()
		w := mpi.NewWorld(k, cluster.New(k, n, ccfg), n)
		k.SetPartitions(nparts, ccfg.Latency)
		w.SetPartitions(partOf, nparts)
		wl := workload.NewSynthetic(n, 8)
		cfg := DefaultConfig(f, wl.ImageBytes)
		cfg.Partitions = partOf
		e := NewEngine(w, cfg)
		e.ScheduleAt(5*sim.Millisecond, nil)
		w.Launch(wl.Body)
		b.StartTimer()

		if err := k.Run(); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if e.Epochs() != 1 || len(e.Records()) != n {
			b.Fatalf("epochs = %d, records = %d; want 1 epoch of %d records", e.Epochs(), len(e.Records()), n)
		}
		k.Shutdown()
		b.StartTimer()
	}
}
