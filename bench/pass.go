package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"repro/gb"
)

// passResult is what one pass reports to the parent, as the last line of
// the child's standard output.
type passResult struct {
	// ReadyUnixNano is the wall-clock instant set-up ended; the parent
	// subtracts the instant it started the child.
	ReadyUnixNano int64 `json:"readyUnixNano"`
	// WallS is the host time of the job, set-up excluded.
	WallS float64 `json:"wallS"`
	// ComparableS is the part of a traced job that does the untraced job's
	// work (a traced pass may run extra decompositions).
	ComparableS float64 `json:"comparableS,omitempty"`
	// Phases are sub-intervals of the job, e.g. gbd's cold phase.
	Phases map[string]float64 `json:"phases,omitempty"`
	// Digest is the pass's output, one line per operation, compared across
	// passes and against the pinned seed-1 reference.
	Digest    []string `json:"digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	AllocBytes uint64 `json:"allocBytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint64 `json:"gcCycles"`

	// Layer and Spans are filled by traced passes only.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// span is one timed call into a layer, relative to the start of the pass.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Attr     string `json:"attr,omitempty"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNs  int64  `json:"startNs"`
	EndNs    int64  `json:"endNs"`
}

// pass is one execution of a workload: set-up, the timed job, then the
// correctness checks.
type pass struct {
	ctx      context.Context
	workload string
	seed     int64
	index    int
	traceDir string // "" for an untraced pass

	// Sizing hooks. The defaults are the benchmark's; tests shrink them.
	tweak func(*gb.Scenario)
	warm  int

	begin     time.Time
	setupSpan int
	jobSpan   int
	endSetup  func()
	endPass   func()

	mu  sync.Mutex
	res passResult
}

const maxErrors = 20

func newPass(ctx context.Context, workload string, seed int64, index int, traceDir string) *pass {
	p := &pass{ctx: ctx, workload: workload, seed: seed, index: index, traceDir: traceDir,
		warm: warmRequests, begin: time.Now()}
	if p.traced() {
		p.res.Layer = map[string]float64{}
	}
	var root int
	root, p.endPass = p.startSpan(0, "pass", "")
	p.setupSpan, p.endSetup = p.startSpan(root, "setup", "")
	return p
}

// finish closes the pass and returns its result.
func (p *pass) finish() passResult {
	p.endPass()
	p.readRuntime()
	return p.res
}

func (p *pass) traced() bool { return p.traceDir != "" }

// startSpan opens a span under parent and returns its id and the function
// that closes it. Untraced passes record nothing.
func (p *pass) startSpan(parent int, name, attr string) (int, func()) {
	if !p.traced() {
		return 0, func() {}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	id := len(p.res.Spans) + 1
	p.res.Spans = append(p.res.Spans, span{ID: id, Parent: parent, Name: name, Attr: attr,
		Workload: p.workload, Pass: p.index, StartNs: time.Since(p.begin).Nanoseconds()})
	return id, func() {
		end := time.Since(p.begin).Nanoseconds()
		p.mu.Lock()
		p.res.Spans[id-1].EndNs = end
		p.mu.Unlock()
	}
}

// spanSeconds is the summed duration of the closed spans called name.
func (p *pass) spanSeconds(name string) (sum float64, durs []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.res.Spans {
		if s.Name == name && s.EndNs > 0 {
			d := float64(s.EndNs-s.StartNs) / 1e9
			sum += d
			durs = append(durs, d)
		}
	}
	return sum, durs
}

// op counts one attempted operation and reports whether it succeeded.
func (p *pass) op(err error) bool {
	p.mu.Lock()
	p.res.Attempted++
	p.mu.Unlock()
	if err != nil {
		p.fail("%v", err)
		return false
	}
	return true
}

// fail records a failed operation or correctness check.
func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.res.Failed++
	if len(p.res.Errors) < maxErrors {
		p.res.Errors = append(p.res.Errors, fmt.Sprintf(format, args...))
	}
}

// add accumulates a per-layer metric of a traced pass.
func (p *pass) add(name string, v float64) {
	if !p.traced() {
		return
	}
	p.mu.Lock()
	p.res.Layer[name] += v
	p.mu.Unlock()
}

func (p *pass) phase(name string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.res.Phases == nil {
		p.res.Phases = map[string]float64{}
	}
	p.res.Phases[name] = d.Seconds()
}

// job ends set-up and times fn, the part of the pass a user waits for. A
// traced pass profiles the CPU for the duration of fn.
func (p *pass) job(fn func() error) error {
	p.endSetup()
	p.res.ReadyUnixNano = time.Now().UnixNano()
	id, end := p.startSpan(1, "job", "")
	p.jobSpan = id
	stop := func() {}
	if p.traced() {
		f, err := os.Create(filepath.Join(p.traceDir, p.workload+".pprof"))
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		stop = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				p.fail("cpu profile: %v", err)
			}
		}
	}
	t0 := time.Now()
	err := fn()
	p.res.WallS = time.Since(t0).Seconds()
	stop()
	end()
	if p.res.ComparableS == 0 {
		p.res.ComparableS = p.res.WallS
	}
	return err
}

// addRun folds a cell's metrics snapshot into the per-layer counts.
func (p *pass) addRun(res *gb.Result) {
	p.add("sim.events", float64(res.Events))
	m := res.Metrics
	if m == nil {
		return
	}
	counter := func(name string) float64 {
		v, _ := m.Counter(name)
		return float64(v)
	}
	p.add("mpi.sends", counter("mpi_sends_total"))
	p.add("mpi.send_mb", counter("mpi_send_bytes_total")/mb)
	p.add("core.ckpts", counter("ckpt_completed_total"))
	p.add("mlog.flush_mb", counter("ckpt_log_flush_bytes_total")/mb)
	p.add("failure.injected", counter("failures_injected_total"))
	p.add("sim.lookahead_stalls", counter("sim_lookahead_stalls_total"))
	if parts, ok := m.Gauge("sim_partitions"); ok {
		p.mu.Lock()
		p.res.Layer["sim.partitions"] = max(p.res.Layer["sim.partitions"], parts)
		p.mu.Unlock()
	}
}

const mb = 1 << 20

// readRuntime records the process's allocation and GC totals.
func (p *pass) readRuntime() {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	p.res.AllocBytes = s[0].Value.Uint64()
	p.res.Mallocs = s[1].Value.Uint64()
	p.res.GCCycles = s[2].Value.Uint64()
}
