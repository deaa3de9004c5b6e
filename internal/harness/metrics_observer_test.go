package harness

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/workload"
)

// metricsSpec is a small GP1 run with periodic checkpoints and Poisson
// failures — every instrumented layer fires.
func metricsSpec() Spec {
	return Spec{
		WL: workload.NewSynthetic(8, 60), Mode: GP1, Seed: 3,
		Sched:       Schedule{Interval: sim.Second},
		FailureProc: failure.Poisson{MTBF: sim.Seconds(2)},
	}
}

// TestMetricsObserverAgreesWithResult runs once with metrics and inspect
// stacked and cross-checks the snapshot against the Result's ground truth:
// the same counters the invariant oracle reads.
func TestMetricsObserverAgreesWithResult(t *testing.T) {
	spec := metricsSpec()
	spec.Observers = []Observer{NewMetricsObserver(), NewInspectObserver()}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Metrics
	if s == nil {
		t.Fatal("Result.Metrics not populated")
	}

	wantCounters := map[string]int64{
		"mpi_sends_total":         int64(res.MsgStats.Sends),
		"mpi_delivered_total":     int64(res.MsgStats.Delivered),
		"mpi_consumed_total":      int64(res.MsgStats.Consumed),
		"ckpt_completed_total":    int64(len(res.Records)),
		"failures_injected_total": int64(len(res.Failures)),
		"sim_events_total":        int64(res.Events),
	}
	for name, want := range wantCounters {
		got, ok := s.Counter(name)
		if !ok {
			t.Errorf("%s missing from snapshot", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, Result says %d", name, got, want)
		}
	}
	if want := failure.Sum(res.Failures); want.Failures > 0 {
		if got, _ := s.Gauge("failure_lost_group_seconds"); !near(got, want.WorkLossGrp.Seconds()) {
			t.Errorf("failure_lost_group_seconds = %v, Result says %v", got, want.WorkLossGrp.Seconds())
		}
		if got, _ := s.Counter("failure_replay_bytes_total"); got != want.ReplayBytes {
			t.Errorf("failure_replay_bytes_total = %d, Result says %d", got, want.ReplayBytes)
		}
	}
	var wantImage int64
	for _, r := range res.Records {
		wantImage += r.ImageBytes
	}
	if got, _ := s.Counter("ckpt_image_bytes_total"); got != wantImage {
		t.Errorf("ckpt_image_bytes_total = %d, Records say %d", got, wantImage)
	}
	hv, ok := s.Histogram("ckpt_duration_seconds")
	if !ok || hv.Count != int64(len(res.Records)) {
		t.Errorf("ckpt_duration_seconds count = %d, want %d", hv.Count, len(res.Records))
	}
	if got, _ := s.Gauge("run_exec_seconds"); !near(got, res.ExecTime.Seconds()) {
		t.Errorf("run_exec_seconds = %v, want %v", got, res.ExecTime.Seconds())
	}
	if got, _ := s.Gauge("run_epochs"); got != float64(res.Epochs) {
		t.Errorf("run_epochs = %v, want %d", got, res.Epochs)
	}

	// The snapshot is JSON-serializable (per-cell recording depends on it).
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot does not marshal: %v", err)
	}
	// And renders valid-looking Prometheus text.
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE mpi_sends_total counter") {
		t.Errorf("exposition missing mpi_sends_total TYPE line:\n%s", sb.String())
	}
}

// TestMetricsObserverDoesNotPerturb: a run with the metrics observer
// stacked must be identical — execution time, events, records, failures —
// to the same spec without it, and two metered runs must produce identical
// snapshots. Observation is not allowed to move the simulation.
func TestMetricsObserverDoesNotPerturb(t *testing.T) {
	bare, err := Run(context.Background(), metricsSpec())
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		spec := metricsSpec()
		spec.Observers = []Observer{NewMetricsObserver()}
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	m1, m2 := run(), run()
	if bare.ExecTime != m1.ExecTime || bare.Events != m1.Events {
		t.Errorf("metered run diverged: exec %v vs %v, events %d vs %d",
			bare.ExecTime, m1.ExecTime, bare.Events, m1.Events)
	}
	if len(bare.Records) != len(m1.Records) || len(bare.Failures) != len(m1.Failures) {
		t.Errorf("metered run diverged: records %d vs %d, failures %d vs %d",
			len(bare.Records), len(m1.Records), len(bare.Failures), len(m1.Failures))
	}
	if !reflect.DeepEqual(m1.Metrics, m2.Metrics) {
		t.Errorf("identical metered runs produced different snapshots:\n%+v\n%+v", m1.Metrics, m2.Metrics)
	}
}

// TestRoundsCounterWorkerIndependent: sim_rounds_total counts the
// partitioned kernel's lookahead rounds, which depend only on event
// timestamps — one cell reads the same value, and the same snapshot, at
// RunWorkers 1 and 4.
func TestRoundsCounterWorkerIndependent(t *testing.T) {
	run := func(workers int) *Result {
		spec := metricsSpec()
		spec.WL = workload.NewSynthetic(16, 60)
		spec.Mode = GP4
		spec.PartitionMinRanks = 2
		spec.RunWorkers = workers
		spec.Observers = []Observer{NewMetricsObserver()}
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	rounds, ok := one.Metrics.Counter("sim_rounds_total")
	if parts, _ := one.Metrics.Gauge("sim_partitions"); !ok || rounds == 0 || parts < 2 {
		t.Fatalf("sim_rounds_total = %d (ok=%v) over %v partitions; want a partitioned run with rounds", rounds, ok, parts)
	}
	if got, _ := four.Metrics.Counter("sim_rounds_total"); got != rounds {
		t.Errorf("sim_rounds_total = %d at RunWorkers 4, %d at RunWorkers 1", got, rounds)
	}
	if !reflect.DeepEqual(one.Metrics, four.Metrics) {
		t.Errorf("snapshots differ between RunWorkers 1 and 4:\n%+v\n%+v", one.Metrics, four.Metrics)
	}
}

// TestMetricsObserverStacks: metrics + inspect + comm in one run, each
// publishing its own Result fields.
func TestMetricsObserverStacks(t *testing.T) {
	spec := metricsSpec()
	spec.Observers = []Observer{NewMetricsObserver(), NewInspectObserver(), NewCommObserver()}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || res.Comm == nil || res.MsgStats.Sends == 0 {
		t.Fatalf("stacked observers left gaps: metrics=%v comm=%v sends=%d",
			res.Metrics != nil, res.Comm != nil, res.MsgStats.Sends)
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
