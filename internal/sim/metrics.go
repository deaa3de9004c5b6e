package sim

import "repro/internal/metrics"

// Metrics is the kernel's bundle of online instruments. It exists so the
// hot loop pays exactly one nil check when no collector is attached: the
// kernel holds a *Metrics, and step dereferences pre-registered instrument
// pointers — no map lookups, no locks, no allocations (see
// OBSERVABILITY.md).
type Metrics struct {
	// Events counts processed events (sim_events_total).
	Events *metrics.Counter
	// QueueDepth samples the event-queue length at every step
	// (sim_queue_depth): its percentiles bound the heap's working set.
	QueueDepth *metrics.Histogram
	// Partitions reports the kernel's partition count (sim_partitions):
	// 1 for a serial run, the sub-kernel count for a partitioned one.
	Partitions *metrics.Gauge
	// LookaheadStalls counts rounds a nonempty partition sat out because
	// the conservative bound held it back (sim_lookahead_stalls_total) —
	// the coordination cost of the partitioned schedule.
	LookaheadStalls *metrics.Counter
	// Rounds counts lookahead windows opened (sim_rounds_total).
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
		QueueDepth:      c.Histogram("sim_queue_depth", "events", "event-queue depth at each step"),
		Partitions:      c.Gauge("sim_partitions", "partitions", "kernel partitions in the current run"),
		LookaheadStalls: c.Counter("sim_lookahead_stalls_total", "stalls", "partitions held back a round by the conservative lookahead bound"),
		Rounds:          c.Counter("sim_rounds_total", "rounds", "lookahead windows opened by the partitioned kernel"),
	}
}

// SetMetrics attaches (or, with nil, detaches) online instruments. Call
// before Run; the kernel records nothing when unset.
func (k *Kernel) SetMetrics(m *Metrics) { k.metrics = m }
