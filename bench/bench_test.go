package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/gb"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, want at most 64 KiB", len(b))
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var spec benchmarkJSON
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON checks BENCHMARK.json against its schema limits and
// against the workloads and metrics this program defines.
func TestBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", spec.RunSeconds)
	}
	// A full evaluation of the benchmark is 4 + 22 runs per workload and
	// two builds, within 3420 s. A run ends within about a second of
	// run_seconds (the cached build check, and a last pass that may end
	// late); a build from an empty cache takes about 20 s on 2 cores.
	runs := 4 + 22*len(spec.Workloads)
	if total := runs*(spec.RunSeconds+2) + 2*60; total > 3420 {
		t.Errorf("about %d s for every run, want at most 3420", total)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings, want 1 to 32", len(spec.Command))
	}
	for _, s := range spec.Command {
		if len(s) > 200 || strings.HasPrefix(s, "/") || strings.Contains(s, "..") {
			t.Errorf("command string %q is too long or leaves the repository", s)
		}
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("paths %q, want [bench]", spec.Paths)
	}

	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d is %q in BENCHMARK.json but %q here, or their whys differ", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}

	var largest float64
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
		} else {
			largest = max(largest, *m.Bound)
		}
	}
	setup := slices.IndexFunc(spec.EndToEnd, func(m declared) bool { return m.Name == "setup_s" })
	if setup < 0 {
		t.Fatal("no setup_s end-to-end metric")
	}
	if m := spec.EndToEnd[setup]; m.Unit != "s" || m.Better != "lower" || m.Bound == nil || *m.Bound != largest {
		t.Errorf("setup_s must be in s, lower is better, with the largest bound; got %+v", m)
	}
	check := func(kind string, got []declared, want []metric, bounded bool) {
		for _, m := range got {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s: unit %q does not match %s", kind, m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better %q", kind, m.Name, m.Better)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s %s has a bound", kind, m.Name)
			}
		}
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the program %d", len(got), kind, len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || (bounded && *m.Bound != w.Bound) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd, true)
	check("per-layer", spec.PerLayer, perLayer, false)
}

// miniature shrinks each workload so that a test can run it in moments.
// These sizes exist only here.
var miniature = map[string]func(*gb.Scenario){
	"paper-hpl": func(sc *gb.Scenario) {
		sc.Scales = []int{16, 32}
		sc.Workload.Problem = 8000
		sc.Checkpoint.AtS = 5
	},
	"gp-4k": func(sc *gb.Scenario) {
		sc.Scales = []int{256}
		sc.Workload.Iters = 3
	},
	"gp1-16k": func(sc *gb.Scenario) {
		sc.Scales = []int{1024}
		sc.Workload.Iters = 2
	},
	"gbd-2tenant": func(sc *gb.Scenario) {
		sc.Scales = sc.Scales[:1]
		sc.Workload.Iters = 3
	},
}

// runMiniature runs one in-process pass of a shrunken workload.
func runMiniature(t *testing.T, w workload, seed int64, traceDir string) passResult {
	t.Helper()
	p := newPass(context.Background(), w.name, seed, 0, traceDir)
	p.tweak = miniature[w.name]
	p.warm = 20
	if err := w.run(p); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	res := p.finish()
	if res.Failed > 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %q", w.name, res.Failed, res.Attempted, res.Errors)
	}
	return res
}

// lastResult runs report and decodes the JSON line it ends with.
func lastResult(t *testing.T, r runResult, o options) result {
	t.Helper()
	var buf bytes.Buffer
	if !report(&buf, r, o) {
		t.Errorf("%s: report says incorrect:\n%s", r.workload, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func metricNames(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	slices.Sort(out)
	return out
}

func keys(m map[string]value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestMiniatureWorkloads runs every workload shrunken, untraced and traced,
// and checks that both passes agree and that the report carries exactly the
// declared metric names.
func TestMiniatureWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			plain := runMiniature(t, w, 2, "")
			traced := runMiniature(t, w, 2, dir)
			if !slices.Equal(plain.Digest, traced.Digest) || len(plain.Digest) == 0 {
				t.Errorf("untraced and traced digests differ:\n%q\n%q", plain.Digest, traced.Digest)
			}
			for name := range traced.Layer {
				if !slices.Contains(metricNames(perLayer), name) {
					t.Errorf("the traced pass sets undeclared metric %q", name)
				}
			}
			r := runResult{
				workload: w.name,
				passes:   []passOut{{passResult: plain, setupS: 0.002, peakRSSMB: 50, cpuS: 1, index: 1}},
				traced:   &passOut{passResult: traced},
			}
			o := options{seed: 2, traceDir: dir}
			if got, want := keys(lastResult(t, r, o).Metrics), metricNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("untraced report metrics %q, want %q", got, want)
			}
			o.trace = 1
			res := lastResult(t, r, o)
			if got, want := keys(res.Metrics), metricNames(perLayer); !slices.Equal(got, want) {
				t.Errorf("traced report metrics %q, want %q", got, want)
			}
			var shares float64
			for _, l := range layers {
				shares += res.Metrics[l+".self_share"].Value
			}
			if math.Abs(shares-1) > 1e-9 && shares != 0 {
				t.Errorf("layer shares sum to %v", shares)
			}
		})
	}
}

// TestVerdictCountsDigestMismatches checks the cross-pass gate: a pass
// whose digest differs from the reference fails one operation per line.
func TestVerdictCountsDigestMismatches(t *testing.T) {
	pass := func(digest ...string) passOut {
		return passOut{passResult: passResult{Digest: digest, Attempted: 2}}
	}
	r := runResult{workload: "w", passes: []passOut{pass("a", "b"), pass("a", "c"), pass("a")}}
	if att, failed, _ := verdict(r, nil); att != 6 || failed != 2 {
		t.Errorf("against the first pass: attempted %d failed %d, want 6 and 2", att, failed)
	}
	if _, failed, _ := verdict(r, []string{"a", "c"}); failed != 2 {
		t.Errorf("against a pinned reference: failed %d, want 2", failed)
	}
}

func TestQuantile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3}, 0.5, 3},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{hundred, 0.99, 99.01},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Kernel).Run"}, "sim"},
		{[]string{"runtime.memmove", "repro/internal/mpi.(*World).Send"}, "mpi"},
		{[]string{"repro/internal/cluster.(*NIC).Book"}, "mpi"},
		{[]string{"repro/internal/ckpt.Record.Duration"}, "core"},
		{[]string{"repro/internal/workload.(*HPL).Body"}, "app"},
		{[]string{"repro/internal/runner.Each[go.shape.struct { repro/internal/sim.X }].func1"}, "harness"},
		{[]string{"type:.eq.repro/internal/scenario.Cell", "repro/gb.RunCell"}, "harness"},
		{[]string{"repro/gb/gbd.cellCacheKey"}, "gbd"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/sim.NewKernel"}, "gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/mlog.(*Set).Append"}, "mlog"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"runtime.lock2", "runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Proc).Sleep"}, "sched"},
		{[]string{"reflect.Value.Field", "encoding/json.(*encodeState).reflectValue"}, "json"},
		{[]string{"crypto/internal/fips140/sha256.blockAVX2", "crypto/sha256.Sum256"}, "sha256"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*response).finishRequest"}, "nethttp"},
		{[]string{"main.runGBD"}, "other"},
		{[]string{"runtime.memclrNoHeapPointers"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
