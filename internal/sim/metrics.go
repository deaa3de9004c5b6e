package sim

import "repro/internal/metrics"

// Metrics is the kernel's bundle of online instruments. The coordinator
// updates them — per round and when Run ends — never the event loop, so
// pool members share no instrument and every value is the same at any
// worker count (see OBSERVABILITY.md).
type Metrics struct {
	// Events counts processed events (sim_events_total): the partitions'
	// own counts, added when Run ends.
	Events *metrics.Counter
	// QueueDepth samples a partition's event-queue length at every 32nd
	// event it processes (sim_queue_depth), observed at the end of each
	// round in partition order: its percentiles bound the heap's working
	// set.
	QueueDepth *metrics.Histogram
	// Partitions reports the kernel's partition count (sim_partitions):
	// 1 for a serial run, the sub-kernel count for a partitioned one.
	Partitions *metrics.Gauge
	// LookaheadStalls counts rounds a nonempty partition sat out because
	// the conservative bound held it back (sim_lookahead_stalls_total) —
	// the coordination cost of the partitioned schedule.
	LookaheadStalls *metrics.Counter
	// Rounds counts lookahead windows opened (sim_rounds_total); a serial
	// kernel's one window, bounded only by the horizon, is not one.
	// LookaheadStalls / Rounds is the mean number of partitions left idle
	// per round.
	Rounds *metrics.Counter
}

// NewMetrics registers the kernel's instruments on c. Names are stable
// API — they appear in snapshots, Prometheus exposition, and the
// OBSERVABILITY.md reference table.
func NewMetrics(c *metrics.Collector) *Metrics {
	return &Metrics{
		Events:          c.Counter("sim_events_total", "events", "kernel events processed"),
		QueueDepth:      c.Histogram("sim_queue_depth", "events", "partition event-queue depth, sampled every 32nd event"),
		Partitions:      c.Gauge("sim_partitions", "partitions", "kernel partitions in the current run"),
		LookaheadStalls: c.Counter("sim_lookahead_stalls_total", "stalls", "partitions held back a round by the conservative lookahead bound"),
		Rounds:          c.Counter("sim_rounds_total", "rounds", "lookahead windows opened by the partitioned kernel"),
	}
}

// SetMetrics attaches (or, with nil, detaches) online instruments. Call
// before Run; the kernel records nothing when unset.
func (k *Kernel) SetMetrics(m *Metrics) { k.metrics = m }
