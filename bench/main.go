// Command bench is the repository benchmark. It runs named workloads
// through the public gb and gb/gbd API, each pass in a fresh child process,
// and prints the end-to-end metrics declared in BENCHMARK.json (or, with
// -trace 1, the per-layer metrics) after checking every pass's output.
//
// Run it from the root of the repository:
//
//	bash bench/run.sh --workload gp-4k --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceDir string
	sets     int
	update   string
	child    bool
	pass     int
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, one result line each)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the program receives it only as the scenario seed")
	fs.IntVar(&o.seconds, "seconds", 30, "how long one run measures, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 for a traced run: per-layer metrics, spans and CPU profiles")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes spans.jsonl and <workload>.pprof")
	fs.IntVar(&o.sets, "sets", 1, "run this many full sets back to back and compare their medians")
	fs.StringVar(&o.update, "update", "", "write each workload's seed-1 digest into this directory, then exit")
	fs.BoolVar(&o.child, "child", false, "run one pass in this process (the benchmark starts itself this way)")
	fs.IntVar(&o.pass, "pass", 0, "pass index, with -child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || o.sets < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want -seconds >= 1, -sets >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadNamed(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}
	if o.child {
		return childMain(ctx, selected[0], o, stdout)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.update != "" {
		return update(ctx, exe, selected, o.update)
	}
	if o.trace == 1 {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	env, _ := json.Marshal(stamp(selected))
	fmt.Fprintf(stdout, "# env %s\n", env)
	code := 0
	var spans []span
	for _, w := range selected {
		var sets []runResult
		for s := 0; s < o.sets && ctx.Err() == nil; s++ {
			sets = append(sets, measure(ctx, exe, w, o, o.trace == 1 && s == 0))
		}
		if len(sets) > 1 {
			printSets(stdout, sets)
		}
		r := pool(sets)
		if r.traced != nil {
			spans = append(spans, r.traced.Spans...)
		}
		if !report(stdout, r, o) {
			code = 1
		}
	}
	if o.trace == 1 {
		if err := writeSpans(filepath.Join(o.traceDir, "spans.jsonl"), spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if ctx.Err() != nil {
		return 1
	}
	return code
}

// childMain runs one pass and prints its result as the last output line.
func childMain(ctx context.Context, w workload, o options, stdout io.Writer) int {
	traceDir := ""
	if o.trace == 1 {
		traceDir = o.traceDir
	}
	p := newPass(ctx, w.name, o.seed, o.pass, traceDir)
	if err := w.run(p); err != nil {
		if p.res.Failed == 0 {
			p.fail("%v", err)
		} else {
			p.res.Errors = append(p.res.Errors, err.Error())
		}
	}
	res := p.finish()
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// passOut is a pass as the parent sees it: the child's report plus what
// the operating system measured about the child.
type passOut struct {
	passResult
	setupS    float64 // from starting the child to the end of its set-up
	peakRSSMB float64
	cpuS      float64 // user + system time of the child
	procS     float64 // the child's whole lifetime
	index     int
	err       error
}

// childTimeout bounds one pass, so that a hung child cannot hold a run
// past its time limit.
const childTimeout = 150 * time.Second

func runChild(ctx context.Context, exe string, wl workload, seed int64, index int, traceDir string) passOut {
	w := wl.name
	args := []string{"-child", "-workload", w, "-seed", fmt.Sprint(seed), "-pass", fmt.Sprint(index)}
	if traceDir != "" {
		args = append(args, "-trace", "1", "-trace-dir", traceDir)
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = childEnv(wl)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	out := passOut{index: index, procS: time.Since(start).Seconds()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			out.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
			out.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		}
	}
	if err != nil {
		out.err = fmt.Errorf("%s pass %d: %w", w, index, err)
		return out
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &out.passResult); err != nil {
		out.err = fmt.Errorf("%s pass %d: reading its result: %w", w, index, err)
		return out
	}
	out.setupS = time.Duration(out.ReadyUnixNano - start.UnixNano()).Seconds()
	return out
}

// childEnv pins the runtime settings every pass of w runs with.
func childEnv(w workload) []string {
	env := slices.DeleteFunc(os.Environ(), func(kv string) bool {
		return strings.HasPrefix(kv, "GOMAXPROCS=") || strings.HasPrefix(kv, "GOGC=")
	})
	return append(env, fmt.Sprintf("GOMAXPROCS=%d", childProcs(w)), "GOGC="+childGOGC)
}

// childProcs is the GOMAXPROCS of w's children: its simulation threads, at
// most the core count.
func childProcs(w workload) int {
	return max(1, min(w.threads, runtime.NumCPU()))
}

// runResult is every pass of one run of one workload.
type runResult struct {
	workload string
	passes   []passOut // untraced
	traced   *passOut
	elapsed  time.Duration
}

// minPasses is the fewest untraced passes a run takes its medians over.
const minPasses = 3

// measure runs untraced passes until the next one would end past the time
// budget, after an optional traced pass.
func measure(ctx context.Context, exe string, w workload, o options, traced bool) runResult {
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	r := runResult{workload: w.name}
	if traced {
		tp := runChild(ctx, exe, w, o.seed, 0, o.traceDir)
		r.traced = &tp
	}
	for ctx.Err() == nil {
		if len(r.passes) >= minPasses {
			next := time.Duration(quantile(field(r.passes, func(p passOut) float64 { return p.procS }), 0.5) * 1e9)
			if time.Since(start)+next > budget {
				break
			}
		}
		p := runChild(ctx, exe, w, o.seed, len(r.passes)+1, "")
		r.passes = append(r.passes, p)
		if p.err != nil { // the run is already incorrect; do not risk its time limit
			break
		}
	}
	r.elapsed = time.Since(start)
	return r
}

// pool merges back-to-back sets into one run; the traced pass, if any,
// comes from the first set.
func pool(sets []runResult) runResult {
	r := sets[0]
	r.passes = slices.Clone(r.passes)
	for _, s := range sets[1:] {
		r.passes = append(r.passes, s.passes...)
		r.elapsed += s.elapsed
	}
	return r
}

// succeeded returns the passes whose child exited cleanly with a result.
func succeeded(passes []passOut) []passOut {
	return slices.DeleteFunc(slices.Clone(passes), func(p passOut) bool { return p.err != nil })
}

func field(passes []passOut, f func(passOut) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// endToEndValues returns each end-to-end metric's per-pass values.
func endToEndValues(passes []passOut) map[string][]float64 {
	good := succeeded(passes)
	ready := slices.DeleteFunc(slices.Clone(good), func(p passOut) bool { return p.ReadyUnixNano == 0 })
	return map[string][]float64{
		"wall_s":      field(good, func(p passOut) float64 { return p.WallS }),
		"setup_s":     field(ready, func(p passOut) float64 { return p.setupS }),
		"peak_rss_mb": field(good, func(p passOut) float64 { return p.peakRSSMB }),
	}
}

// layerValues returns every per-layer metric of a traced run: the traced
// pass's own counts and spans, its profile folded by layer, and process
// figures taken as medians over the untraced passes.
func layerValues(r runResult, traceDir string) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	t := r.traced
	if t == nil || t.err != nil {
		return m, fmt.Errorf("%s: no traced pass", r.workload)
	}
	for k, v := range t.Layer {
		m[k] = v
	}
	f, err := os.Open(filepath.Join(traceDir, r.workload+".pprof"))
	if err != nil {
		return m, err
	}
	defer f.Close()
	shares, err := foldProfile(f)
	if err != nil {
		return m, err
	}
	for l, s := range shares {
		m[l+".self_share"] = s
	}
	good := succeeded(r.passes)
	median := func(f func(passOut) float64) float64 { return quantile(field(good, f), 0.5) }
	m["cpu_s"] = median(func(p passOut) float64 { return p.cpuS })
	m["alloc_mb"] = median(func(p passOut) float64 { return float64(p.AllocBytes) / mb })
	m["mallocs_m"] = median(func(p passOut) float64 { return float64(p.Mallocs) / 1e6 })
	m["gc_cycles"] = median(func(p passOut) float64 { return float64(p.GCCycles) })
	wall := median(func(p passOut) float64 { return p.WallS })
	simulating := wall
	if _, ok := t.Phases["cold_s"]; ok { // gbd simulates only in its cold phase
		simulating = median(func(p passOut) float64 { return p.Phases["cold_s"] })
	}
	m["sim.events_per_s"] = m["sim.events"] / simulating
	m["bench.trace_overhead"] = t.ComparableS / wall
	return m, nil
}

// verdict applies the correctness gate over every pass of a run: the
// child's own checks, a clean exit, and a digest equal to the reference —
// the pinned seed-1 output when there is one, else the first pass's.
func verdict(r runResult, ref []string) (attempted, failed int, problems []string) {
	all := r.passes
	if r.traced != nil {
		all = append([]passOut{*r.traced}, all...)
	}
	for _, p := range all {
		if p.err != nil {
			attempted++
			failed++
			problems = append(problems, p.err.Error())
			continue
		}
		attempted += p.Attempted
		failed += p.Failed
		problems = append(problems, p.Errors...)
		if ref == nil {
			ref = p.Digest
		}
		if bad := diffLines(ref, p.Digest); bad > 0 {
			failed += bad
			problems = append(problems, fmt.Sprintf("%s pass %d: %d digest lines differ from the reference", r.workload, p.index, bad))
		}
	}
	return attempted, min(failed, attempted), problems
}

// diffLines counts the positions at which two digests differ.
func diffLines(a, b []string) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

//go:embed testdata/*.txt
var pinned embed.FS

// reference is the pinned digest of a workload at seed 1 (nil otherwise).
func reference(w string, seed int64) []string {
	if seed != 1 {
		return nil
	}
	b, err := pinned.ReadFile("testdata/" + w + ".txt")
	if err != nil {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints a run's human-readable summary and its JSON result line,
// and returns whether the run was correct.
func report(w io.Writer, r runResult, o options) bool {
	attempted, failed, problems := verdict(r, reference(r.workload, o.seed))
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "# FAIL %s: %s\n", r.workload, p)
	}
	fmt.Fprintf(w, "# %s seed %d: %d untraced passes in %.1f s; %d of %d operations failed\n",
		r.workload, o.seed, len(r.passes), r.elapsed.Seconds(), failed, attempted)
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	if o.trace == 1 {
		m, err := layerValues(r, o.traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "# FAIL %s: %v\n", r.workload, err)
			res.Failed = max(res.Failed, 1)
		}
		for _, d := range perLayer {
			fmt.Fprintf(w, "%-24s %14.6g %s\n", d.Name, m[d.Name], d.Unit)
			res.Metrics[d.Name] = value{finite(m[d.Name]), d.Unit}
		}
	} else {
		vals := endToEndValues(r.passes)
		for _, d := range endToEnd {
			xs := vals[d.Name]
			med := quantile(xs, 0.5)
			fmt.Fprintf(w, "%-12s %12.6g %-3s (min %.6g, max %.6g, n %d)\n",
				d.Name, med, d.Unit, quantile(xs, 0), quantile(xs, 1), len(xs))
			res.Metrics[d.Name] = value{finite(med), d.Unit}
		}
	}
	res.Correct = res.Failed == 0 && len(succeeded(r.passes)) > 0
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}

// finite maps a missing measurement (NaN) to 0; the run is then marked
// incorrect anyway, because a pass failed.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// printSets prints each end-to-end metric's median per set, and how far
// each later set moved from the first relative to the metric's bound.
func printSets(w io.Writer, sets []runResult) {
	fmt.Fprintf(w, "# %s: %d sets\n# %-12s", sets[0].workload, len(sets), "metric")
	for i := range sets {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("set%d", i+1))
	}
	fmt.Fprintf(w, " %9s %6s\n", "max_diff", "bound")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "# %-12s", d.Name)
		first := quantile(endToEndValues(sets[0].passes)[d.Name], 0.5)
		worst := 0.0
		for _, s := range sets {
			med := quantile(endToEndValues(s.passes)[d.Name], 0.5)
			fmt.Fprintf(w, " %12.6g", med)
			if diff := (med - first) / first; math.Abs(diff) > math.Abs(worst) {
				worst = diff
			}
		}
		fmt.Fprintf(w, " %+8.1f%% %5.0f%%\n", 100*worst, 100*d.Bound)
	}
}

// update writes each workload's seed-1 digest, from one clean pass.
func update(ctx context.Context, exe string, selected []workload, dir string) int {
	for _, w := range selected {
		p := runChild(ctx, exe, w, 1, 1, "")
		if p.err != nil || p.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: pass failed: %v %v\n", w.name, p.err, p.Errors)
			return 1
		}
		path := filepath.Join(dir, w.name+".txt")
		if err := os.WriteFile(path, []byte(strings.Join(p.Digest, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "bench: wrote", path)
	}
	return 0
}

// writeSpans writes the traced passes' spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
