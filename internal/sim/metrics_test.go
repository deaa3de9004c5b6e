package sim

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// newBusyModel builds a partitioned model busy enough that sim_queue_depth's
// reservoir must choose among its samples. In each of four partitions,
// eight processes hold for random times, longer in the higher partitions;
// after a hold, one in eight schedules a burst of up to 63 callbacks in its
// own partition and another one in eight sends an event to the next
// partition. Queue depths swing over a wide range, and rounds stall the
// sparser partitions.
func newBusyModel(workers int) (*Kernel, *metrics.Collector) {
	const parts, procs, holds = 4, 8, 200
	k := NewKernel(11)
	col := metrics.New()
	k.SetMetrics(NewMetrics(col))
	k.SetPartitions(parts, ringLookahead)
	k.SetRunWorkers(workers)
	noop := func(any) {}
	for i := 0; i < parts; i++ {
		next := (i + 1) % parts
		for range procs {
			k.SpawnIn(i, L("busy"), func(p *Proc) {
				rng := k.PartRand(i)
				for range holds {
					p.Hold(Time(rng.Int63n(int64(ringLookahead) << (2 * i))))
					switch rng.Intn(8) {
					case 0:
						for b := rng.Intn(64); b > 0; b-- {
							k.PartAt1(i, p.Now()+Time(rng.Int63n(int64(4*ringLookahead))), noop, nil)
						}
					case 1:
						k.CrossAt1(i, next, p.Now()+ringLookahead, noop, nil)
					}
				}
			})
		}
	}
	return k, col
}

// TestMetricsIdenticalAtEveryWorkerCount: the kernel's instruments are as
// deterministic as the simulation. Every sim_* metric reads the same at
// RunWorkers 1, 2 and 4, the queue-depth reservoir's choice included, and
// sim_events_total equals Kernel.Events. GOMAXPROCS is raised to 4
// meanwhile, so that RunWorkers 4 runs a pool of 4.
func TestMetricsIdenticalAtEveryWorkerCount(t *testing.T) {
	raiseProcs(t, 4)
	var ref *metrics.Snapshot
	for _, w := range []int{1, 2, 4} {
		k, col := newBusyModel(w)
		if err := k.Run(); err != nil {
			t.Fatalf("RunWorkers %d: %v", w, err)
		}
		k.Shutdown()
		snap := col.Snapshot()
		if events, _ := snap.Counter("sim_events_total"); uint64(events) != k.Events() {
			t.Errorf("RunWorkers %d: sim_events_total = %d, Kernel.Events = %d", w, events, k.Events())
		}
		if depth := snap.Histograms[0]; depth.Name != "sim_queue_depth" || depth.Count <= metrics.DefaultReservoir {
			t.Fatalf("RunWorkers %d: %d %s samples, want more than the reservoir's %d sim_queue_depth samples",
				w, depth.Count, depth.Name, metrics.DefaultReservoir)
		}
		if w == 1 {
			ref = snap
			continue
		}
		if !reflect.DeepEqual(snap, ref) {
			t.Errorf("RunWorkers %d diverges from RunWorkers 1:\n got  %+v\n want %+v", w, snap, ref)
		}
	}
}

// TestSerialRunSamplesQueueDepth: a serial kernel's run is one round, and
// its queue depth is still sampled at every depthSampleEvery-th event, not
// once per round.
func TestSerialRunSamplesQueueDepth(t *testing.T) {
	k := NewKernel(1)
	col := metrics.New()
	k.SetMetrics(NewMetrics(col))
	for range 64 {
		k.Spawn(L("p"), func(p *Proc) {
			for range 50 {
				p.Hold(Microsecond)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if events, _ := snap.Counter("sim_events_total"); uint64(events) != k.Events() {
		t.Errorf("sim_events_total = %d, Kernel.Events = %d", events, k.Events())
	}
	depth := snap.Histograms[0]
	if want := int64(k.Events() / depthSampleEvery); depth.Name != "sim_queue_depth" || depth.Count != want || want < 100 {
		t.Errorf("%s: %d samples over %d events, want %d", depth.Name, depth.Count, k.Events(), want)
	}
}
