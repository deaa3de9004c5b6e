package repro

import (
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchFlushRun wires a GP1 engine with an explicit background-flush rate
// (the ablation knob) and returns the aggregate checkpoint time.
func benchFlushRun(k *sim.Kernel, c *cluster.Cluster, wl workload.Workload, rate float64) (sim.Time, error) {
	n := wl.Procs()
	w := mpi.NewWorld(k, c, n)
	cfg := core.DefaultConfig(group.Singletons(n), wl.ImageBytes)
	cfg.BgFlushRate = rate
	e := core.NewEngine(w, cfg)
	e.ScheduleAt(5 * sim.Second)
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		return 0, err
	}
	return ckpt.AggregateCheckpointTime(e.Records()), nil
}
