// Package trace implements the paper's lightweight MPI communication tracer
// and its analyses: send-record aggregation by unordered process pair (the
// input to group formation, paper Algorithm 2), trace files, ASCII trace
// timelines (the Figure 2 diagrams), and checkpoint-window gap analysis
// ("was the application able to make progress during the checkpoint?").
package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Record is one traced transport event.
type Record struct {
	T       sim.Time
	Src     int
	Dst     int
	Tag     int
	Bytes   int64
	Deliver bool // false: send; true: delivery at the destination
}

// Recorder collects records; it implements mpi.Tracer. It buffers every
// transport event, so memory scales with message count — prefer CommMatrix
// when only pair aggregates are needed.
type Recorder struct {
	Records []Record
}

// Send implements mpi.Tracer.
func (r *Recorder) Send(t sim.Time, src, dst, tag int, bytes int64) {
	r.Records = append(r.Records, Record{T: t, Src: src, Dst: dst, Tag: tag, Bytes: bytes})
}

// Deliver implements mpi.Tracer.
func (r *Recorder) Deliver(t sim.Time, src, dst, tag int, bytes int64) {
	r.Records = append(r.Records, Record{T: t, Src: src, Dst: dst, Tag: tag, Bytes: bytes, Deliver: true})
}

// PairStat aggregates traffic between an unordered pair of ranks A < B.
type PairStat struct {
	A, B  int
	Count int   // total number of messages either direction
	Bytes int64 // total bytes either direction
}

// Aggregate folds send records into per-unordered-pair totals, sorted
// descending by bytes, then count, then (A, B) ascending — the ordering the
// paper's Algorithm 2 prescribes ("sort L descendingly by S, then by N,
// finally by P").
func Aggregate(records []Record) []PairStat {
	type key struct{ a, b int }
	agg := map[key]*PairStat{}
	for _, rec := range records {
		if rec.Deliver || rec.Src == rec.Dst {
			continue
		}
		a, b := rec.Src, rec.Dst
		if a > b {
			a, b = b, a
		}
		k := key{a, b}
		st, ok := agg[k]
		if !ok {
			st = &PairStat{A: a, B: b}
			agg[k] = st
		}
		st.Count++
		st.Bytes += rec.Bytes
	}
	out := make([]PairStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sortPairs(out)
	return out
}

// Write serializes records as one text line each:
//
//	S|D <ns> <src> <dst> <tag> <bytes>
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		kind := "S"
		if r.Deliver {
			kind = "D"
		}
		if _, err := fmt.Fprintf(bw, "%s %d %d %d %d %d\n",
			kind, int64(r.T), r.Src, r.Dst, r.Tag, r.Bytes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses records written by Write.
func Read(rd io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		var kind string
		var r Record
		var t int64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d %d %d %d %d",
			&kind, &t, &r.Src, &r.Dst, &r.Tag, &r.Bytes); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		r.T = sim.Time(t)
		switch kind {
		case "S":
		case "D":
			r.Deliver = true
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record kind %q", line, kind)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
