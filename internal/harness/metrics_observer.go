package harness

import (
	"repro/internal/ckpt"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// MetricsObserver attaches the online metrics layer to a run: one
// metrics.Collector spanning every instrumented layer — kernel event loop,
// message path, checkpoint engine, failure injector — plus run-level
// figures, published as Result.Metrics when the run completes. The
// collector is live during the run (a future gbd daemon scrapes it); the
// published snapshot is immutable.
//
// Observation never perturbs the simulation: the hooks record what already
// happened and the hot paths pay only atomic increments (see
// OBSERVABILITY.md for the metric reference and the zero-alloc contract).
// Every mode is covered: the group engine and the VCL baseline both
// stream per-checkpoint records, so ckpt_* metrics compare across modes.
type MetricsObserver struct {
	col *metrics.Collector

	execSeconds *metrics.Gauge
	epochs      *metrics.Gauge
}

// NewMetricsObserver returns a fresh observer for one run.
func NewMetricsObserver() *MetricsObserver {
	return &MetricsObserver{col: metrics.New()}
}

// BeforeRun implements Observer: it arms the kernel and message-path
// instruments and registers the checkpoint and failure hooks.
func (o *MetricsObserver) BeforeRun(env *RunEnv) mpi.Tracer {
	col := o.col
	env.World.K.SetMetrics(sim.NewMetrics(col))
	env.World.SetMetrics(mpi.NewMetrics(col))

	ckptDone := col.Counter("ckpt_completed_total", "ckpts", "per-rank group checkpoints completed")
	ckptDur := col.Histogram("ckpt_duration_seconds", "s", "per-rank checkpoint duration, all four stages")
	ckptCoord := col.Histogram("ckpt_coord_seconds", "s", "per-rank checkpoint duration excluding the image write (the paper's coordination metric)")
	ckptImage := col.Counter("ckpt_image_bytes_total", "bytes", "checkpoint image bytes written")
	ckptFlush := col.Counter("ckpt_log_flush_bytes_total", "bytes", "sender-log tail bytes synced at checkpoints")
	env.OnRecord(func(r ckpt.Record) {
		ckptDone.Inc()
		ckptDur.Observe(r.Duration().Seconds())
		ckptCoord.Observe((r.Duration() - r.Stages[ckpt.StageWrite]).Seconds())
		ckptImage.Add(r.ImageBytes)
		ckptFlush.Add(r.LogFlushed)
	})

	failures := col.Counter("failures_injected_total", "failures", "stochastic failures injected and evaluated")
	lostGrp := col.Gauge("failure_lost_group_seconds", "s", "cumulative work lost under group restart")
	lostGlb := col.Gauge("failure_lost_global_seconds", "s", "cumulative work lost under global restart")
	replay := col.Counter("failure_replay_bytes_total", "bytes", "sender-log bytes out-of-group peers would replay")
	env.OnFailure(func(out failure.Outcome) {
		failures.Inc()
		lostGrp.Add(out.WorkLossGrp.Seconds())
		lostGlb.Add(out.WorkLossGlb.Seconds())
		replay.Add(out.ReplayBytes)
	})

	o.execSeconds = col.Gauge("run_exec_seconds", "s", "simulated application execution time")
	o.epochs = col.Gauge("run_epochs", "epochs", "checkpoint epochs completed")
	return nil
}

// AfterRun implements Observer: it fills the run-level gauges and publishes
// the final snapshot as Result.Metrics.
func (o *MetricsObserver) AfterRun(res *Result) {
	o.execSeconds.Set(res.ExecTime.Seconds())
	o.epochs.Set(float64(res.Epochs))
	res.Metrics = o.col.Snapshot()
}
