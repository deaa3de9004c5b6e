package trace

import (
	"sort"

	"repro/internal/sim"
)

// CommMatrix is a streaming communication tracer: it folds every send into
// per-unordered-pair (count, bytes) totals online, so memory scales with the
// number of communicating rank pairs instead of the number of messages. It
// implements the same observer interface as Recorder (mpi.Tracer) and its
// Pairs output is element-for-element identical to Aggregate over a full
// send-record trace — group formation (paper Algorithm 2) consumes either
// interchangeably. Use a Recorder only when per-record data is genuinely
// needed (trace timelines, checkpoint-window gap analysis, trace files).
type CommMatrix struct {
	cells map[uint64]*PairStat
	sends int   // send records folded in (self-sends excluded)
	bytes int64 // total bytes across all sends
}

// NewCommMatrix returns an empty matrix.
func NewCommMatrix() *CommMatrix {
	return &CommMatrix{cells: make(map[uint64]*PairStat)}
}

// Send implements the tracer interface: it folds one send into the matrix.
// Self-sends are excluded, exactly as Aggregate excludes them.
func (m *CommMatrix) Send(t sim.Time, src, dst, tag int, bytes int64) {
	if src == dst {
		return
	}
	a, b := src, dst
	if a > b {
		a, b = b, a
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	st := m.cells[key]
	if st == nil {
		st = &PairStat{A: a, B: b}
		m.cells[key] = st
	}
	st.Count++
	st.Bytes += bytes
	m.sends++
	m.bytes += bytes
}

// Deliver implements the tracer interface. Pair aggregation keys off sends
// only (as Aggregate does), so deliveries are ignored.
func (m *CommMatrix) Deliver(t sim.Time, src, dst, tag int, bytes int64) {}

// Sends returns the number of send records folded in.
func (m *CommMatrix) Sends() int { return m.sends }

// TotalBytes returns the total bytes across all folded sends.
func (m *CommMatrix) TotalBytes() int64 { return m.bytes }

// Pairs returns the aggregated pair totals sorted descending by bytes, then
// count, then (A, B) ascending — the ordering the paper's Algorithm 2
// prescribes, and byte-for-byte the ordering Aggregate produces from an
// equivalent record trace.
func (m *CommMatrix) Pairs() []PairStat {
	out := make([]PairStat, 0, len(m.cells))
	for _, st := range m.cells {
		out = append(out, *st)
	}
	sortPairs(out)
	return out
}

// Tracer is the observer interface shared by Recorder and CommMatrix
// (structurally identical to mpi.Tracer, restated here so trace does not
// import mpi).
type Tracer interface {
	Send(t sim.Time, src, dst, tag int, bytes int64)
	Deliver(t sim.Time, src, dst, tag int, bytes int64)
}

// Tee fans every traced event out to several tracers — e.g. a full Recorder
// for timeline analysis plus a CommMatrix for formation.
type Tee []Tracer

// Send implements the tracer interface.
func (t Tee) Send(at sim.Time, src, dst, tag int, bytes int64) {
	for _, tr := range t {
		tr.Send(at, src, dst, tag, bytes)
	}
}

// Deliver implements the tracer interface.
func (t Tee) Deliver(at sim.Time, src, dst, tag int, bytes int64) {
	for _, tr := range t {
		tr.Deliver(at, src, dst, tag, bytes)
	}
}

// sortPairs orders pair stats descending by (bytes, count), then ascending
// by (A, B) — Algorithm 2's input order.
func sortPairs(out []PairStat) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
}
