package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// CounterValue is one counter's state in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Help  string `json:"-"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's state in a Snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Help  string  `json:"-"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram's state in a Snapshot: exact count, sum,
// min, max, and quantiles estimated from the reservoir sample.
type HistogramValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Help  string  `json:"-"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is an immutable copy of a Collector's state at one instant.
// Instruments are sorted by name within each kind. Snapshots share no
// memory with the collector or with each other: retaining one while the
// run continues, or diffing two, is safe.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot returns an immutable copy of the collector's current state.
func (c *Collector) Snapshot() *Snapshot {
	c.mu.Lock()
	entries := make([]*entry, len(c.entries))
	copy(entries, c.entries)
	c.mu.Unlock()

	s := &Snapshot{}
	for _, e := range entries {
		switch e.kind {
		case KindCounter:
			s.Counters = append(s.Counters, CounterValue{
				Name: e.name, Unit: e.unit, Help: e.help, Value: e.c.Value()})
		case KindGauge:
			s.Gauges = append(s.Gauges, GaugeValue{
				Name: e.name, Unit: e.unit, Help: e.help, Value: e.g.Value()})
		case KindHistogram:
			s.Histograms = append(s.Histograms, e.h.snapshotValue(e.name, e.unit, e.help))
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

func (h *Histogram) snapshotValue(name, unit, help string) HistogramValue {
	v := HistogramValue{Name: name, Unit: unit, Help: help, Count: h.Count()}
	if v.Count == 0 {
		return v
	}
	v.Sum = math.Float64frombits(h.sum.Load())
	v.Min = math.Float64frombits(h.min.Load())
	v.Max = math.Float64frombits(h.max.Load())
	sample := h.sample()
	v.P50 = quantile(sample, 0.50)
	v.P90 = quantile(sample, 0.90)
	v.P99 = quantile(sample, 0.99)
	return v
}

// quantile estimates quantile q from a sorted sample by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Counter returns the named counter's value (0, false if absent).
func (s *Snapshot) Counter(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the named gauge's value (0, false if absent).
func (s *Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Label returns name with a k="v" label pair appended, merging with an
// existing label set: Label("req_total", "tenant", "a") is
// `req_total{tenant="a"}`, and labeling that again appends inside the
// braces. The value is escaped per the exposition format. Instruments
// registered under labeled names form one metric family per base name —
// WritePrometheus emits a single HELP/TYPE header for the family and one
// series line per label set, which is how a multi-tenant daemon exposes
// per-tenant series through a label-free collector.
func Label(name, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// splitSeries splits a series name into its family and label body:
// `x_total{tenant="a"}` → ("x_total", `tenant="a"`); an unlabeled name is
// its own family with an empty label body.
func splitSeries(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// series renders family plus an optional label body back into a series name.
func series(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: counters and gauges as their native types, histograms as
// summaries (quantile series plus _sum and _count). Output order is
// deterministic: counters, gauges, histograms, each sorted by name.
// Labeled series (see Label) of one family sort adjacently and share a
// single HELP/TYPE header. This is the serialization gbd serves from
// /metrics.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	seen := map[string]bool{}
	header := func(name, help, unit, typ string) (string, string, error) {
		fam, labels := splitSeries(name)
		if seen[fam] {
			return fam, labels, nil
		}
		seen[fam] = true
		return fam, labels, writeHeader(w, fam, help, unit, typ)
	}
	for _, c := range s.Counters {
		if _, _, err := header(c.Name, c.Help, c.Unit, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, _, err := header(g.Name, g.Help, g.Unit, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", g.Name, formatFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		fam, labels, err := header(h.Name, h.Help, h.Unit, "summary")
		if err != nil {
			return err
		}
		for _, q := range []struct {
			label string
			v     float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			qlabels := Label(series(fam, labels), "quantile", q.label)
			if _, err := fmt.Fprintf(w, "%s %s\n", qlabels, formatFloat(q.v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series(fam+"_sum", labels), formatFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", series(fam+"_count", labels), h.Count); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, unit, typ string) error {
	if help != "" {
		if unit != "" {
			help += " (" + unit + ")"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, with special values spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
