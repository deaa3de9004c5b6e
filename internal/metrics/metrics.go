// Package metrics is the online metrics layer: counters, gauges, and
// reservoir-sampled percentile histograms behind a collector / snapshot
// split. A Collector is the mutable side — instrument sites hold direct
// pointers to its Counter/Gauge/Histogram instruments and update them with
// a few atomic operations, no locks and no allocations on the hot path. A
// Snapshot is the immutable side — a deep, self-contained copy of every
// registered instrument's state at one instant, safe to retain, compare,
// serialize (JSON), or render (WritePrometheus) while the collector keeps
// moving.
//
// The split exists for the simulator's fast path: with no collector
// attached the instrumented layers pay a single nil check (see
// OBSERVABILITY.md for the zero-alloc guarantee and the benchmark that
// enforces it); with one attached they pay atomic increments. Snapshots
// are taken off the hot path — once per run by the harness's
// MetricsObserver, or on demand by a future scrape endpoint.
//
// Determinism: within one simulation run all updates come from the
// kernel's event loop, which runs one process at a time, so counter
// values, reservoir contents, and therefore snapshots are bit-for-bit
// reproducible for a given seed (the reservoir's RNG is seeded at
// construction, never from the clock). The instruments are nevertheless
// safe for concurrent writers — a future daemon scraping live collectors
// relies on that — at the cost of losing reservoir determinism only when
// writers actually race.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument. The zero value
// is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 instrument holding a last-written value that can also
// be accumulated into (Add), for totals that are naturally fractional —
// seconds of lost work, for example. The zero value is ready to use and
// reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates v into the gauge (lock-free CAS loop).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultReservoir is the reservoir size Collector.Histogram uses: large
// enough that p99 of a full run is stable to a few percent, small enough
// that a histogram costs ~4KB however many observations flow through it.
const DefaultReservoir = 512

// Histogram records a stream of float64 observations and answers quantile
// queries from a fixed-size uniform sample (Vitter's Algorithm R). Count,
// sum, min, and max are exact; quantiles are estimates whose error shrinks
// with the reservoir size (exact while count ≤ size). All updates are
// atomic — no locks, no allocations.
type Histogram struct {
	size  int
	count atomic.Int64
	sum   atomic.Uint64 // float64 bits, CAS-accumulated
	min   atomic.Uint64 // float64 bits
	max   atomic.Uint64 // float64 bits
	rng   atomic.Uint64 // Weyl state for the reservoir's splitmix64 stream
	res   []atomic.Uint64
}

// NewHistogram returns a histogram with the given reservoir size (≤ 0
// selects DefaultReservoir).
func NewHistogram(size int) *Histogram {
	if size <= 0 {
		size = DefaultReservoir
	}
	h := &Histogram{size: size, res: make([]atomic.Uint64, size)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	n := h.count.Add(1)
	casAccumulate(&h.sum, v, func(a, b float64) float64 { return a + b })
	casAccumulate(&h.min, v, math.Min)
	casAccumulate(&h.max, v, math.Max)
	slot := n - 1
	if slot >= int64(h.size) {
		// Reservoir full: keep v with probability size/n, evicting a
		// uniformly drawn resident (Algorithm R).
		j := h.nextRand(uint64(n))
		if j >= uint64(h.size) {
			return
		}
		slot = int64(j)
	}
	h.res[slot].Store(math.Float64bits(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// nextRand draws a pseudo-random value in [0, n): a Weyl-sequence step
// finalized with the splitmix64 mixer. Atomic add keeps concurrent writers
// from sharing a draw; single-threaded use is fully deterministic.
func (h *Histogram) nextRand(n uint64) uint64 {
	x := h.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x % n
}

// casAccumulate folds v into an atomically stored float64 with a CAS loop.
func casAccumulate(a *atomic.Uint64, v float64, f func(float64, float64) float64) {
	for {
		old := a.Load()
		nw := math.Float64bits(f(math.Float64frombits(old), v))
		if nw == old || a.CompareAndSwap(old, nw) {
			return
		}
	}
}

// sample returns the current reservoir contents, sorted ascending.
func (h *Histogram) sample() []float64 {
	k := h.count.Load()
	if k > int64(h.size) {
		k = int64(h.size)
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = math.Float64frombits(h.res[i].Load())
	}
	sort.Float64s(out)
	return out
}

// Kind classifies a registered instrument.
type Kind int

// The instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered instrument with its metadata.
type entry struct {
	name, unit, help string
	kind             Kind
	c                *Counter
	g                *Gauge
	h                *Histogram
}

// Collector is a registry of named instruments. Registration (Counter,
// Gauge, Histogram) takes a mutex and may allocate; it happens at
// attach time, before the hot path runs. The returned instrument pointers
// are what instrument sites hold — updating them never touches the
// registry again. Registering a name twice returns the existing instrument
// (and panics if the kind differs: one name, one meaning).
type Collector struct {
	mu      sync.Mutex
	byName  map[string]*entry
	entries []*entry
}

// New returns an empty collector.
func New() *Collector { return &Collector{byName: map[string]*entry{}} }

func (c *Collector) register(name, unit, help string, kind Kind) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byName[name]; ok {
		if e.kind != kind {
			panic("metrics: " + name + " registered as both " + e.kind.String() + " and " + kind.String())
		}
		return e
	}
	e := &entry{name: name, unit: unit, help: help, kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = NewHistogram(DefaultReservoir)
	}
	c.byName[name] = e
	c.entries = append(c.entries, e)
	return e
}

// Counter registers (or retrieves) the named counter.
func (c *Collector) Counter(name, unit, help string) *Counter {
	return c.register(name, unit, help, KindCounter).c
}

// Gauge registers (or retrieves) the named gauge.
func (c *Collector) Gauge(name, unit, help string) *Gauge {
	return c.register(name, unit, help, KindGauge).g
}

// Histogram registers (or retrieves) the named histogram (DefaultReservoir
// sample size).
func (c *Collector) Histogram(name, unit, help string) *Histogram {
	return c.register(name, unit, help, KindHistogram).h
}
