// Package scenario turns the harness into a declarative experiment engine:
// a JSON spec composes a cluster calibration × a workload × group policies ×
// a checkpoint schedule × a stochastic failure process into a runnable
// sweep, and Matrix is the one engine every sweep runs on. The paper's
// figures (internal/paper) are scenarios on its 2002 testbed; the same specs
// reach arbitrary configurations — modern hardware, 4096-rank scales,
// multi-failure lifetimes — while keeping the determinism guarantee: a spec
// plus a seed fully determines every table cell, at any worker count.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/failure"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Spec is one declarative experiment: the cross product of Scales × Modes ×
// Reps cells, each a full simulation run.
type Spec struct {
	// Name labels the output table.
	Name string `json:"name"`
	// Notes is free-form commentary echoed under the table.
	Notes string `json:"notes,omitempty"`

	Cluster    ClusterSpec    `json:"cluster"`
	Workload   WorkloadSpec   `json:"workload"`
	Scales     []int          `json:"scales"`
	Modes      []string       `json:"modes,omitempty"` // default ["GP","NORM"]
	Checkpoint CheckpointSpec `json:"checkpoint"`
	Failures   *FailureSpec   `json:"failures,omitempty"`

	// Jobs switches the sweep from single-application cells to cluster
	// cells: each cell simulates a stream of jobs (each an inner harness
	// run) arriving, queueing, and departing on a cluster of Scales nodes.
	// When set, Workload must be empty — the job templates carry the
	// per-job workloads — and Scales are node counts, not rank counts.
	Jobs *JobsSpec `json:"jobs,omitempty"`

	// Reps is the repetitions per cell (default 2).
	Reps int `json:"reps,omitempty"`
	// Seed is the base seed every cell seed derives from. 0 selects the
	// deterministic default (1): a spec NEVER seeds from the wall clock,
	// so a spec file plus its seed always reproduces the same tables,
	// and a seed printed by gbcheck reproduces a failure exactly.
	Seed int64 `json:"seed,omitempty"`

	// GroupMax bounds GP's trace-derived group size (0 = ⌈√n⌉).
	GroupMax int `json:"groupMax,omitempty"`
	// RemoteServers stores images on shared servers instead of local disk.
	RemoteServers int  `json:"remoteServers,omitempty"`
	RemoteAsync   bool `json:"remoteAsync,omitempty"`
}

// ClusterSpec selects a named calibration and optionally overrides it.
// Override units are operator-friendly (MB/s, µs) rather than the model's
// bytes/s and nanoseconds.
type ClusterSpec struct {
	Profile       string   `json:"profile,omitempty"` // "gideon" (default) | "modern"
	GFlops        float64  `json:"gflops,omitempty"`
	NICMBps       float64  `json:"nicMBps,omitempty"`
	LatencyUs     float64  `json:"latencyUs,omitempty"`
	DiskWriteMBps float64  `json:"diskWriteMBps,omitempty"`
	DiskReadMBps  float64  `json:"diskReadMBps,omitempty"`
	JitterFrac    *float64 `json:"jitterFrac,omitempty"` // pointer: 0 disables jitter
}

// Config resolves the spec to a hardware model. A negative override is a
// spec bug, never a hardware model: it is rejected with the field name
// rather than silently falling back to the profile value (the same
// loud-failure contract DisallowUnknownFields gives typoed keys).
func (c ClusterSpec) Config() (cluster.Config, error) {
	profile := c.Profile
	if profile == "" {
		profile = "gideon"
	}
	cfg, ok := cluster.Named(profile)
	if !ok {
		return cluster.Config{}, fmt.Errorf("unknown cluster profile %q (have %s)",
			c.Profile, strings.Join(cluster.Profiles(), ", "))
	}
	for _, ov := range []struct {
		field string
		v     float64
	}{
		{"gflops", c.GFlops},
		{"nicMBps", c.NICMBps},
		{"latencyUs", c.LatencyUs},
		{"diskWriteMBps", c.DiskWriteMBps},
		{"diskReadMBps", c.DiskReadMBps},
	} {
		if ov.v < 0 {
			return cluster.Config{}, fmt.Errorf("cluster override %s=%g negative; omit the field to keep the %s profile value",
				ov.field, ov.v, profile)
		}
	}
	if c.GFlops > 0 {
		cfg.FlopRate = c.GFlops * 1e9
	}
	if c.NICMBps > 0 {
		cfg.NICRate = c.NICMBps * 1e6
	}
	if c.LatencyUs > 0 {
		cfg.Latency = sim.Time(c.LatencyUs * float64(sim.Microsecond))
	}
	if c.DiskWriteMBps > 0 {
		cfg.DiskWrite = c.DiskWriteMBps * 1e6
	}
	if c.DiskReadMBps > 0 {
		cfg.DiskRead = c.DiskReadMBps * 1e6
	}
	if c.JitterFrac != nil {
		if *c.JitterFrac < 0 {
			return cluster.Config{}, fmt.Errorf("cluster override jitterFrac=%g negative; use 0 to disable jitter", *c.JitterFrac)
		}
		cfg.JitterFrac = *c.JitterFrac
	}
	return cfg, nil
}

// WorkloadSpec names a workload skeleton and its parameters. Zero-valued
// parameters keep each skeleton's defaults.
type WorkloadSpec struct {
	Kind string `json:"kind"` // synthetic | hpl | cg | sp

	// synthetic
	Iters         int     `json:"iters,omitempty"`
	RingKB        int64   `json:"ringKB,omitempty"`
	CrossKB       int64   `json:"crossKB,omitempty"`
	CrossEach     int     `json:"crossEach,omitempty"`
	MFlopsPerIter float64 `json:"mflopsPerIter,omitempty"`
	ImageMB       int64   `json:"imageMB,omitempty"`

	// hpl (N), sp (Problem)
	Problem int `json:"problem,omitempty"`
	// cg
	NA int `json:"na,omitempty"`
	// cg / sp iteration count override
	NIter int `json:"niter,omitempty"`
	// cg inner iterations per superstep (0 keeps the skeleton's 5)
	InnerBatch int `json:"innerBatch,omitempty"`
}

// workloadKinds maps each kind to its per-scale constraint.
var workloadKinds = map[string]func(n int) error{
	"synthetic": func(n int) error { return nil },
	"hpl": func(n int) error {
		if n%8 != 0 {
			return fmt.Errorf("hpl needs a multiple of 8 ranks, got %d", n)
		}
		return nil
	},
	"cg": func(n int) error {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("cg needs a power-of-two rank count, got %d", n)
		}
		return nil
	},
	"sp": func(n int) error {
		sq := int(math.Round(math.Sqrt(float64(n))))
		if sq*sq != n {
			return fmt.Errorf("sp needs a square rank count, got %d", n)
		}
		return nil
	},
}

// Build constructs the workload at scale n.
func (w WorkloadSpec) Build(n int) workload.Workload {
	switch w.Kind {
	case "synthetic":
		wl := workload.NewSynthetic(n, defInt(w.Iters, 40))
		if w.RingKB > 0 {
			wl.RingBytes = w.RingKB << 10
		}
		if w.CrossKB > 0 {
			wl.CrossByte = w.CrossKB << 10
		}
		if w.CrossEach > 0 {
			wl.CrossEach = w.CrossEach
		}
		if w.MFlopsPerIter > 0 {
			wl.Flops = w.MFlopsPerIter * 1e6
		}
		if w.ImageMB > 0 {
			wl.Image = w.ImageMB << 20
		}
		return wl
	case "hpl":
		return workload.NewHPL(defInt(w.Problem, 20000), n)
	case "cg":
		wl := workload.CGClassC(n)
		if w.NA > 0 {
			wl.NA = w.NA
		}
		if w.NIter > 0 {
			wl.NIter = w.NIter
		}
		if w.InnerBatch > 0 {
			wl.InnerBatch = w.InnerBatch
		}
		return wl
	case "sp":
		wl := workload.SPClassC(n)
		if w.Problem > 0 {
			wl.Problem = w.Problem
		}
		if w.NIter > 0 {
			wl.NIter = w.NIter
		}
		return wl
	}
	panic("scenario: Build on unvalidated workload kind " + w.Kind)
}

// CheckpointSpec schedules checkpoints in seconds of virtual time.
type CheckpointSpec struct {
	AtS       float64 `json:"atS,omitempty"`       // one checkpoint at this time
	StartS    float64 `json:"startS,omitempty"`    // first periodic checkpoint
	IntervalS float64 `json:"intervalS,omitempty"` // periodic interval
	MaxCount  int     `json:"maxCount,omitempty"`  // cap on periodic checkpoints
}

func (c CheckpointSpec) schedule() harness.Schedule {
	return harness.Schedule{
		At:       sim.Seconds(c.AtS),
		Start:    sim.Seconds(c.StartS),
		Interval: sim.Seconds(c.IntervalS),
		MaxCount: c.MaxCount,
	}
}

// FailureSpec arms a stochastic failure process on every cell.
type FailureSpec struct {
	Process string  `json:"process"`         // poisson | weibull
	MTBFS   float64 `json:"mtbfS"`           // mean time between failures, seconds
	Shape   float64 `json:"shape,omitempty"` // weibull shape (weibull only; default 0.7)
	Max     int     `json:"max,omitempty"`   // cap per run (default failure.DefaultMaxFailures)
	// Pattern modulates the process's intensity over virtual time — a
	// pattern.Spec curve or preset (e.g. {"preset": "burst-storm"}). The
	// base process is thinned against the curve, so failures cluster in
	// bursts and thin out in valleys while staying deterministic per seed.
	Pattern *pattern.Spec `json:"pattern,omitempty"`
}

func (f *FailureSpec) process() (failure.Process, error) {
	mtbf := sim.Seconds(f.MTBFS)
	var base failure.Process
	switch f.Process {
	case "poisson":
		base = failure.Poisson{MTBF: mtbf}
	case "weibull":
		shape := f.Shape
		if shape == 0 {
			shape = 0.7
		}
		w, err := failure.NewWeibull(shape, mtbf)
		if err != nil {
			return nil, err
		}
		base = w
	default:
		panic("scenario: process on unvalidated failure spec " + f.Process)
	}
	if f.Pattern == nil {
		return base, nil
	}
	curve, err := f.Pattern.Curve()
	if err != nil {
		return nil, err
	}
	return failure.NewModulated(base, curve)
}

// JobsSpec switches a scenario to cluster cells: a stream of Count jobs
// arriving on a (possibly pattern-modulated) Poisson stream, placed on the
// cell's nodes by a placement policy, each simulated as an inner harness run
// under the cell's mode, checkpoint schedule, and failure process.
type JobsSpec struct {
	// Count is the number of jobs per cell.
	Count int `json:"count"`
	// MeanInterarrivalS is the base mean gap between arrivals, seconds.
	MeanInterarrivalS float64 `json:"meanInterarrivalS"`
	// Arrivals optionally modulates the arrival intensity over time.
	Arrivals *pattern.Spec `json:"arrivals,omitempty"`
	// Placement is "firstfit" (default; scatters) or "grouped" (contiguous
	// blocks only — checkpoint groups stay co-located at the cost of queue
	// time).
	Placement string `json:"placement,omitempty"`
	// Templates is the job mix; each carries its own workload.
	Templates []JobTemplateSpec `json:"templates"`
}

// JobTemplateSpec is one job class: a workload plus its size and mix weight.
type JobTemplateSpec struct {
	WorkloadSpec
	// Ranks is the job's node count (one rank per node), ≤ every scale.
	Ranks int `json:"ranks"`
	// Weight is the class's relative draw frequency (default 1).
	Weight int `json:"weight,omitempty"`
}

var validModes = map[harness.Mode]bool{
	harness.GP: true, harness.GP1: true, harness.GP4: true,
	harness.NORM: true, harness.VCL: true,
}

// Normalize fills the documented defaults in place — what Parse does for
// file-borne specs; hand-built specs (and the gb facade) call it before
// Validate. Idempotent.
func (s *Spec) Normalize() { s.applyDefaults() }

// applyDefaults fills the documented defaults in place.
func (s *Spec) applyDefaults() {
	if s.Name == "" {
		s.Name = "unnamed"
	}
	if s.Cluster.Profile == "" {
		s.Cluster.Profile = "gideon"
	}
	if len(s.Modes) == 0 {
		s.Modes = []string{string(harness.GP), string(harness.NORM)}
	}
	if s.Reps == 0 {
		s.Reps = 2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Jobs != nil {
		// Copy-on-write: Canonical and the gb facade default a shallow copy
		// of the spec, so defaults must never write through the shared
		// pointer into the caller's jobs block.
		j := *s.Jobs
		j.Templates = append([]JobTemplateSpec(nil), j.Templates...)
		if j.Placement == "" {
			j.Placement = "firstfit"
		}
		for i := range j.Templates {
			if j.Templates[i].Weight == 0 {
				j.Templates[i].Weight = 1
			}
		}
		s.Jobs = &j
	}
}

// Validate checks the spec after defaulting. All errors name the offending
// field so a spec author can fix the file without reading this package.
func (s *Spec) Validate() error {
	if _, err := s.Cluster.Config(); err != nil {
		return fmt.Errorf("scenario %q: cluster: %w", s.Name, err)
	}
	if len(s.Scales) == 0 {
		return fmt.Errorf("scenario %q: scales must list at least one rank count", s.Name)
	}
	for _, n := range s.Scales {
		if n <= 0 {
			return fmt.Errorf("scenario %q: scale %d not positive", s.Name, n)
		}
	}
	if s.Jobs != nil {
		// Cluster cells: scales are node counts, templates carry the
		// workloads — a top-level workload would be silently dead weight.
		if s.Workload != (WorkloadSpec{}) {
			return fmt.Errorf("scenario %q: workload must be empty when jobs is set (job templates carry per-job workloads)", s.Name)
		}
		if err := s.validateJobs(); err != nil {
			return err
		}
	} else {
		checkScale, ok := workloadKinds[s.Workload.Kind]
		if !ok {
			return fmt.Errorf("scenario %q: unknown workload kind %q (have synthetic, hpl, cg, sp)", s.Name, s.Workload.Kind)
		}
		for _, n := range s.Scales {
			if err := checkScale(n); err != nil {
				return fmt.Errorf("scenario %q: scale %d: %w", s.Name, n, err)
			}
		}
	}
	for _, m := range s.Modes {
		if !validModes[harness.Mode(m)] {
			return fmt.Errorf("scenario %q: unknown group policy %q (have GP, GP1, GP4, NORM, VCL)", s.Name, m)
		}
		if harness.Mode(m) == harness.VCL && s.Failures != nil {
			return fmt.Errorf("scenario %q: failure injection requires a group-based policy, not VCL", s.Name)
		}
	}
	if s.Reps < 0 {
		return fmt.Errorf("scenario %q: reps %d negative", s.Name, s.Reps)
	}
	ck := s.Checkpoint
	if ck.AtS < 0 || ck.StartS < 0 || ck.IntervalS < 0 || ck.MaxCount < 0 {
		return fmt.Errorf("scenario %q: checkpoint times and counts must be non-negative", s.Name)
	}
	if f := s.Failures; f != nil {
		if f.Process != "poisson" && f.Process != "weibull" {
			return fmt.Errorf("scenario %q: unknown failure process %q (have poisson, weibull)", s.Name, f.Process)
		}
		if f.MTBFS <= 0 {
			return fmt.Errorf("scenario %q: failure mtbfS %.3f must be positive", s.Name, f.MTBFS)
		}
		if f.Process == "poisson" && f.Shape != 0 {
			// A memoryless process has no shape: accepting the field would
			// silently run a different experiment than the author wrote.
			return fmt.Errorf("scenario %q: failure shape %.3f set with process \"poisson\"; shape is a weibull parameter — remove it or set process to \"weibull\"", s.Name, f.Shape)
		}
		if f.Shape < 0 {
			return fmt.Errorf("scenario %q: failure shape %.3f negative", s.Name, f.Shape)
		}
		if f.Max < 0 {
			return fmt.Errorf("scenario %q: failure max %d negative", s.Name, f.Max)
		}
		if f.Pattern != nil {
			if err := f.Pattern.Validate(); err != nil {
				return fmt.Errorf("scenario %q: failure pattern: %w", s.Name, err)
			}
		}
	}
	if s.GroupMax < 0 || s.RemoteServers < 0 {
		return fmt.Errorf("scenario %q: groupMax and remoteServers must be non-negative", s.Name)
	}
	return nil
}

// validateJobs checks the jobs block against the scales (node counts).
func (s *Spec) validateJobs() error {
	j := s.Jobs
	if j.Count < 1 {
		return fmt.Errorf("scenario %q: jobs count %d, need ≥ 1", s.Name, j.Count)
	}
	if j.MeanInterarrivalS <= 0 {
		return fmt.Errorf("scenario %q: jobs meanInterarrivalS %.3f must be positive", s.Name, j.MeanInterarrivalS)
	}
	if j.Arrivals != nil {
		if err := j.Arrivals.Validate(); err != nil {
			return fmt.Errorf("scenario %q: jobs arrivals: %w", s.Name, err)
		}
	}
	if _, err := jobs.PolicyNamed(j.Placement); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if len(j.Templates) == 0 {
		return fmt.Errorf("scenario %q: jobs templates must list at least one job class", s.Name)
	}
	minScale := s.Scales[0]
	for _, n := range s.Scales {
		if n < minScale {
			minScale = n
		}
	}
	for i, tp := range j.Templates {
		checkScale, ok := workloadKinds[tp.Kind]
		if !ok {
			return fmt.Errorf("scenario %q: jobs template %d: unknown workload kind %q (have synthetic, hpl, cg, sp)", s.Name, i, tp.Kind)
		}
		if tp.Ranks < 1 || tp.Ranks > minScale {
			return fmt.Errorf("scenario %q: jobs template %d (%s): ranks %d, need 1..%d (smallest scale)", s.Name, i, tp.Kind, tp.Ranks, minScale)
		}
		if err := checkScale(tp.Ranks); err != nil {
			return fmt.Errorf("scenario %q: jobs template %d: %w", s.Name, i, err)
		}
		if tp.Weight < 1 {
			return fmt.Errorf("scenario %q: jobs template %d (%s): weight %d, need ≥ 1", s.Name, i, tp.Kind, tp.Weight)
		}
	}
	return nil
}

// Clone returns a deep copy of the spec: mutating the copy's slices or
// nested blocks never writes through to the original. The tuner derives
// hundreds of candidate specs from one base spec; Clone is what makes that
// derivation safe without every caller memorizing which fields are shared.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Scales = append([]int(nil), s.Scales...)
	cp.Modes = append([]string(nil), s.Modes...)
	if s.Cluster.JitterFrac != nil {
		v := *s.Cluster.JitterFrac
		cp.Cluster.JitterFrac = &v
	}
	if s.Failures != nil {
		f := *s.Failures
		f.Pattern = clonePattern(s.Failures.Pattern)
		cp.Failures = &f
	}
	if s.Jobs != nil {
		j := *s.Jobs
		j.Arrivals = clonePattern(s.Jobs.Arrivals)
		j.Templates = append([]JobTemplateSpec(nil), s.Jobs.Templates...)
		cp.Jobs = &j
	}
	return &cp
}

func clonePattern(p *pattern.Spec) *pattern.Spec {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Points = append([]pattern.PointSpec(nil), p.Points...)
	return &cp
}

// Parse decodes a spec from JSON, rejecting unknown fields (a typoed knob
// must fail loudly, not silently run the default), then defaults and
// validates it.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	s.applyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads a spec file.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Marshal renders the spec back to indented JSON (round-trip support).
func (s *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func defInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
