package mpi

import "repro/internal/metrics"

// Metrics is the message layer's bundle of online instruments. The world
// holds a *Metrics; Send, delivery, and Recv each pay a single nil check
// when no collector is attached and a few atomic increments when one is —
// the pooled send path stays allocation-free either way
// (BenchmarkSendPath / BenchmarkSendPathMetrics, see OBSERVABILITY.md).
type Metrics struct {
	// Sends counts application messages entering the network
	// (mpi_sends_total).
	Sends *metrics.Counter
	// SendBytes accumulates their payload bytes (mpi_send_bytes_total).
	SendBytes *metrics.Counter
	// Delivered counts messages handed to a destination transport
	// (mpi_delivered_total).
	Delivered *metrics.Counter
	// Consumed counts messages consumed by Recv (mpi_consumed_total).
	Consumed *metrics.Counter
	// MsgLatency samples per-message network latency in simulated seconds,
	// send to transport arrival (mpi_msg_latency_seconds). A partitioned
	// world buffers the samples per partition and observes them at the
	// round barrier, so the histogram is the same at every worker count.
	MsgLatency *metrics.Histogram
}

// NewMetrics registers the message layer's instruments on c. Names are
// stable API — they appear in snapshots, Prometheus exposition, and the
// OBSERVABILITY.md reference table.
func NewMetrics(c *metrics.Collector) *Metrics {
	return &Metrics{
		Sends:      c.Counter("mpi_sends_total", "msgs", "application messages sent"),
		SendBytes:  c.Counter("mpi_send_bytes_total", "bytes", "application bytes sent"),
		Delivered:  c.Counter("mpi_delivered_total", "msgs", "messages delivered to a transport"),
		Consumed:   c.Counter("mpi_consumed_total", "msgs", "messages consumed by Recv"),
		MsgLatency: c.Histogram("mpi_msg_latency_seconds", "s", "simulated send-to-arrival latency"),
	}
}

// SetMetrics attaches (or, with nil, detaches) online instruments. Call
// before the kernel runs; the world records nothing when unset.
func (w *World) SetMetrics(m *Metrics) { w.metrics = m }
