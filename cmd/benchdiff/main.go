// benchdiff compares benchmark reports (cmd/benchjson output) in two
// modes.
//
// Single-baseline mode compares one fresh report against a committed
// baseline and flags wall-clock regressions on the benchmarks that guard
// the simulator's hot paths — the scenario-scale and sim-kernel
// benchmarks. It prints one line per compared benchmark and exits non-zero
// if any regression exceeds the threshold (`make bench-diff`). Benchmarks
// match on their bare names: the -P GOMAXPROCS suffix go test appends is
// stripped from reports written before cmd/benchjson split it off. When
// both reports carry hardware stamps (CPU model and core count) and the
// stamps differ, the rows are tagged xhw and benchdiff exits 2 with no
// verdict: timings from different machines are not drift. A report with
// no stamp is compared as before, with a one-line note.
//
// Trajectory mode (-trend) ingests a whole directory of BENCH_*.json
// artifacts — one per push, downloaded from CI — orders them by recorded
// timestamp (then file mtime, then name), and renders a markdown trend
// table: one row per (benchmark, metric), one column per commit. It tracks
// ns/op, allocs/op, and any custom benchmark metrics named with -track
// (e.g. GP_ckpt_s from BenchmarkFig06), and flags the latest report when a
// tracked metric drifted up by more than -tolerance versus the previous
// one. The -match filter applies to the ns/op and allocs/op rows only;
// custom -track metrics are followed on every benchmark reporting them,
// since naming one is already an opt-in. CI posts the table to the job summary (`make bench-trend`); see
// EXPERIMENTS.md.
//
// Usage:
//
//	benchdiff -baseline bench-baseline.json -current BENCH_abc123.json
//	benchdiff -baseline old.json -current new.json -threshold 0.5 -match '.*'
//	benchdiff -trend artifacts/ -tolerance 0.25 -track GP_ckpt_s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark mirrors cmd/benchjson's per-benchmark record.
type Benchmark struct {
	Pkg     string             `json:"pkg,omitempty"`
	Name    string             `json:"name"`
	Procs   int                `json:"procs"` // 0 in reports older than the field
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"nsPerOp,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report mirrors cmd/benchjson's document.
type Report struct {
	Commit     string      `json:"commit,omitempty"`
	When       string      `json:"when,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NProc      int         `json:"nproc,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// stamp describes the hardware r was measured on; "" if r carries no stamp.
func (r *Report) stamp() string {
	if r.CPU == "" && r.NProc == 0 {
		return ""
	}
	return fmt.Sprintf("%q with %d CPUs", r.CPU, r.NProc)
}

// defaultMatch selects the benchmarks whose wall clock the refactors of the
// simulation hot path are accountable for.
const defaultMatch = `^Benchmark(Scenario|Kernel|EventHeap|SendPath)`

func main() {
	var (
		baseline  = flag.String("baseline", "bench-baseline.json", "committed baseline report")
		current   = flag.String("current", "", "fresh report to compare (required unless -trend)")
		threshold = flag.Float64("threshold", 0.20, "flag regressions above this fraction (0.20 = +20% ns/op)")
		match     = flag.String("match", defaultMatch, "regexp selecting benchmark names to compare")
		trend     = flag.String("trend", "", "trajectory mode: directory of BENCH_*.json reports to render as a markdown trend table")
		tolerance = flag.Float64("tolerance", 0.20, "trend mode: flag a tracked metric drifting up by more than this fraction vs the previous report")
		track     = flag.String("track", "GP_ckpt_s", "trend mode: comma-separated custom benchmark metrics to track besides ns/op and allocs/op")
	)
	flag.Parse()
	re, err := regexp.Compile(*match)
	if err != nil {
		fatal(err)
	}
	if *trend != "" {
		os.Exit(runTrend(*trend, re, *tolerance, *track))
	}
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required (or use -trend DIR)")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*current)
	if err != nil {
		fatal(err)
	}

	baseStamp, curStamp := base.stamp(), cur.stamp()
	crossHW := baseStamp != "" && curStamp != "" && baseStamp != curStamp
	for _, r := range []struct{ path, stamp string }{{*baseline, baseStamp}, {*current, curStamp}} {
		if r.stamp == "" {
			fmt.Printf("note: %s carries no hardware stamp; compared as if measured on the same machine\n", r.path)
		}
	}

	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Pkg+"/"+b.Name] = b
	}

	curBy := map[string]bool{}
	for _, b := range cur.Benchmarks {
		curBy[b.Pkg+"/"+b.Name] = true
	}

	regressions := 0
	compared := 0
	// Guarded benchmarks that vanished from the fresh report are lost
	// coverage, not a pass — flag them like regressions.
	for _, b := range base.Benchmarks {
		if re.MatchString(b.Name) && !curBy[b.Pkg+"/"+b.Name] {
			fmt.Printf("GONE  %-50s %14.0f ns/op in baseline, absent from current report\n",
				b.Name, b.NsPerOp)
			regressions++
		}
	}
	for _, b := range cur.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		old, ok := baseBy[b.Pkg+"/"+b.Name]
		if !ok || old.NsPerOp <= 0 || b.NsPerOp <= 0 {
			fmt.Printf("NEW   %-50s %14.0f ns/op (no baseline)\n", b.Name, b.NsPerOp)
			continue
		}
		compared++
		delta := b.NsPerOp/old.NsPerOp - 1
		tag := "ok   "
		if crossHW {
			tag = "xhw  "
		} else if delta > *threshold {
			tag = "SLOW "
			regressions++
		} else if delta < -*threshold {
			tag = "fast "
		}
		fmt.Printf("%s %-50s %14.0f -> %14.0f ns/op  %+6.1f%%\n",
			tag, b.Name, old.NsPerOp, b.NsPerOp, delta*100)
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmarks matched %q in both reports\n", *match)
		os.Exit(2)
	}
	if crossHW {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline measured on %s, current on %s: %d benchmark(s) tagged xhw, no verdict across hardware\n",
			baseStamp, curStamp, compared)
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed more than %.0f%% or went missing vs %s (commit %s)\n",
			regressions, *threshold*100, *baseline, base.Commit)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmark(s) within %.0f%% of baseline (commit %s)\n",
		compared, *threshold*100, base.Commit)
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	for i := range r.Benchmarks {
		if b := &r.Benchmarks[i]; b.Procs == 0 {
			b.Name, b.Procs = splitProcs(b.Name)
		}
	}
	return r, nil
}

// splitProcs splits go test's -P GOMAXPROCS suffix off a benchmark name, as
// cmd/benchjson does. go test omits it when P is 1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 1 {
			return name[:i], p
		}
	}
	return name, 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
