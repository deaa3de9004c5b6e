package gb

import (
	"repro/internal/harness"
	"repro/internal/pattern"
	"repro/internal/scenario"
)

// scope says which entry point an option list is being applied to: some
// options configure a single run, some configure a sweep or a single sweep
// cell, some several. An option used outside its scope is rejected with
// ErrBadSpec rather than silently ignored.
type scope int

const (
	scopeRun scope = iota
	scopeSweep
	scopeCell
	scopeTune
)

func (s scope) String() string {
	switch s {
	case scopeSweep:
		return "Sweep"
	case scopeCell:
		return "RunCell"
	case scopeTune:
		return "Tune"
	}
	return "Run"
}

// config is the assembly area the options write into.
type config struct {
	scope scope
	spec  harness.Spec // Run: the spec under construction

	// Sweep knobs.
	workers     int
	seed        int64 // overrides the scenario seed when set
	seedSet     bool
	horizonS    float64
	cellMetrics bool
	runWorkers  int
	jobStream   *scenario.JobsSpec

	// Tune knob: per-rung progress observer.
	tuneProgress func(TuneRungReport)

	// Run knob, applied after all options: wraps the failure process.
	failurePattern *pattern.Spec
}

func newConfig(s scope) *config {
	c := &config{scope: s}
	// A bare gb.Run means: the paper's headline protocol, deterministic
	// seed 1, default (Gideon) cluster, no checkpoints.
	c.spec.Mode = GP
	c.spec.Seed = 1
	return c
}

func (c *config) apply(opts []Option) error {
	for _, o := range opts {
		if err := o(c); err != nil {
			return err
		}
	}
	return nil
}

// Option configures Run or Sweep. Options compose left to right; a later
// option overrides an earlier one for the same knob.
type Option func(*config) error

// runOnly wraps an option that configures a single run; the scenario spec
// owns that knob in a sweep.
func runOnly(name string, f func(*config)) Option {
	return func(c *config) error {
		if c.scope != scopeRun {
			return errBadSpec("%s applies to Run, not %s (the scenario spec owns it)", name, c.scope)
		}
		f(c)
		return nil
	}
}

// WithMode selects the checkpoint protocol configuration (default GP).
func WithMode(m Mode) Option {
	return runOnly("WithMode", func(c *config) { c.spec.Mode = m })
}

// WithCluster selects the hardware calibration (default Gideon()).
func WithCluster(cl Cluster) Option {
	return runOnly("WithCluster", func(c *config) { c.spec.Cluster = cl })
}

// WithSchedule sets when checkpoints are requested (default: none).
func WithSchedule(s Schedule) Option {
	return runOnly("WithSchedule", func(c *config) { c.spec.Sched = s })
}

// WithSeed sets the simulation seed (default 1; identical seeds produce
// identical runs). On a sweep it overrides the scenario spec's seed, from
// which every cell seed derives. Rejected by RunCell: a cell key already
// carries its derived seed.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		if c.scope == scopeCell {
			return errBadSpec("WithSeed applies to Run or Sweep, not RunCell (the cell key owns the seed)")
		}
		c.spec.Seed = seed
		c.seed, c.seedSet = seed, true
		return nil
	}
}

// WithGroupMax bounds GP's trace-derived group size (default ⌈√n⌉).
func WithGroupMax(max int) Option {
	return runOnly("WithGroupMax", func(c *config) { c.spec.GroupMax = max })
}

// WithFormation overrides GP's trace-derived formation with a prebuilt one
// — e.g. read from a group definition file with ReadFormation, or built by
// GroupsFromComm. Requires mode GP.
func WithFormation(f Formation) Option {
	return runOnly("WithFormation", func(c *config) { c.spec.Formation = &f })
}

// RemoteStorage describes shared remote checkpoint servers (the paper's
// Section 5.3 setup) instead of node-local disk.
type RemoteStorage struct {
	// Servers is the server count; 0 means local disk (the default).
	Servers int
	// NICBytesPerSec is each server's NIC rate (0 = Fast Ethernet,
	// 12.5 MB/s, the paper's).
	NICBytesPerSec float64
	// DiskBytesPerSec is each server's disk write rate (0 = 40 MB/s).
	DiskBytesPerSec float64
	// Async selects NFS-style write-behind semantics (the LAM/MPI
	// configuration); VCL always streams synchronously.
	Async bool
}

// WithRemoteStorage stores checkpoint images on shared remote servers.
func WithRemoteStorage(r RemoteStorage) Option {
	return runOnly("WithRemoteStorage", func(c *config) {
		c.spec.RemoteServers = r.Servers
		c.spec.ServerNIC = r.NICBytesPerSec
		c.spec.ServerDisk = r.DiskBytesPerSec
		c.spec.RemoteAsync = r.Async
	})
}

// WithFailures arms a stochastic failure process on the run (group-based
// modes only); outcomes land in Result.Failures.
func WithFailures(f Failures) Option {
	return runOnly("WithFailures", func(c *config) {
		c.spec.FailureProc = f.Process
		c.spec.FailureSeed = f.Seed
		c.spec.MaxFailures = f.Max
	})
}

// WithFailurePattern modulates the run's failure process with a
// time-varying intensity curve: the base process (from WithFailures, which
// must also be present) is thinned against the curve, so failures cluster in
// the curve's bursts and thin out in its valleys while the renewal chain
// stays deterministic per seed. Position-independent: the wrap happens after
// all options apply. On a sweep, the scenario spec owns the knob
// (failures.pattern).
func WithFailurePattern(p PatternSpec) Option {
	return func(c *config) error {
		if c.scope != scopeRun {
			return errBadSpec("WithFailurePattern applies to Run, not %s (the scenario spec owns it: failures.pattern)", c.scope)
		}
		if err := p.Validate(); err != nil {
			return errBadSpec("WithFailurePattern: %v", err)
		}
		c.failurePattern = &p
		return nil
	}
}

// WithJobStream switches a sweep's cells from single applications to
// multi-job clusters: each cell simulates j's stream of jobs arriving,
// queueing, and departing on a cluster of Scale nodes, with each job an
// inner run under the cell's mode, schedule, and failure process
// (Result.Jobs carries the per-job reports). It overrides the scenario's
// jobs block; the scenario's workload must be empty (templates carry the
// per-job workloads).
func WithJobStream(j ScenarioJobs) Option {
	return func(c *config) error {
		if c.scope != scopeSweep {
			return errBadSpec("WithJobStream applies to Sweep, not %s (the scenario spec owns it: jobs)", c.scope)
		}
		c.jobStream = &j
		return nil
	}
}

// WithHorizon caps virtual time: a run (or sweep cell) whose application
// has not finished by d fails with an error wrapping ErrHorizon — the
// liveness backstop that turns a livelock into a diagnosis.
func WithHorizon(d Time) Option {
	return func(c *config) error {
		if c.scope == scopeTune {
			return errBadSpec("WithHorizon applies to Run, Sweep, or RunCell, not Tune (each rung's horizonS owns it)")
		}
		if d < 0 {
			return errBadSpec("WithHorizon(%v): negative horizon", d)
		}
		c.spec.Horizon = d
		c.horizonS = d.Seconds()
		return nil
	}
}

// WithObserver stacks observers onto the run: each may install a tracer
// and publish into the Result. Observers are stateful single-run objects —
// build fresh ones per Run call.
func WithObserver(obs ...Observer) Option {
	return runOnly("WithObserver", func(c *config) {
		c.spec.Observers = append(c.spec.Observers, obs...)
	})
}

// WithCellMetrics attaches a fresh MetricsObserver to every sweep cell (or
// to the one cell of a RunCell call), so each Cell.Result carries a
// per-cell metrics snapshot (Result.Metrics), the same at every
// WithRunWorkers setting. A scenario with Jobs is rejected with ErrBadSpec:
// its cells are job streams, many simulations each. On a single run, stack
// the observer yourself: WithObserver(NewMetricsObserver()).
func WithCellMetrics() Option {
	return func(c *config) error {
		if c.scope != scopeSweep && c.scope != scopeCell {
			return errBadSpec("WithCellMetrics applies to Sweep or RunCell, not %s (use WithObserver(NewMetricsObserver()))", c.scope)
		}
		c.cellMetrics = true
		return nil
	}
}

// WithRunWorkers sets how many OS threads a single simulation may use for
// its own event loop (default 1 = the classic serial kernel). Large
// group-mode runs are partitioned by checkpoint group; n > 1 lets those
// partitions advance concurrently. A run uses no more threads than
// GOMAXPROCS or its partition count, whatever n says. Results are
// byte-identical at every worker count — the partition schedule depends
// only on the spec, never on thread timing — so this is purely a
// wall-clock knob. Orthogonal to WithWorkers, which parallelizes *across*
// sweep cells; WithRunWorkers parallelizes *inside* each run.
func WithRunWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return errBadSpec("WithRunWorkers(%d): negative worker count", n)
		}
		c.spec.RunWorkers = n
		c.runWorkers = n
		return nil
	}
}

// WithWorkers bounds how many sweep cells (or tune evaluations) execute
// concurrently (default: all cores; 1 = serial). Cell seeding makes the
// rendered table — and the tune report — identical at any worker count;
// only wall-clock time and streaming order change.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if c.scope != scopeSweep && c.scope != scopeTune {
			return errBadSpec("WithWorkers applies to Sweep or Tune, not %s (a single run is one simulation)", c.scope)
		}
		c.workers = n
		return nil
	}
}

// WithTuneProgress observes each completed rung of a Tune search in ladder
// order — progress reporting for CLIs and streaming services. The callback
// runs on the searching goroutine; the report is unaffected by it.
func WithTuneProgress(fn func(TuneRungReport)) Option {
	return func(c *config) error {
		if c.scope != scopeTune {
			return errBadSpec("WithTuneProgress applies to Tune, not %s", c.scope)
		}
		c.tuneProgress = fn
		return nil
	}
}
