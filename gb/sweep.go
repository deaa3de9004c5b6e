package gb

import (
	"context"
	"fmt"
	"io"
	"iter"

	"repro/internal/jobs"
	"repro/internal/pattern"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

type (
	// Scenario is a declarative experiment: a cluster calibration × a
	// workload × scales × protocol modes × a checkpoint schedule × an
	// optional failure process, swept as Scales × Modes × Reps cells.
	// Build one from JSON with LoadScenario/ParseScenario, by name with
	// BuiltinScenario, or as a literal from the Scenario* field types.
	Scenario = scenario.Spec

	// ScenarioCluster selects a named cluster calibration and optionally
	// overrides it (Scenario.Cluster).
	ScenarioCluster = scenario.ClusterSpec

	// ScenarioWorkload names a workload skeleton and its parameters
	// (Scenario.Workload).
	ScenarioWorkload = scenario.WorkloadSpec

	// ScenarioCheckpoint schedules checkpoints in seconds of virtual time
	// (Scenario.Checkpoint).
	ScenarioCheckpoint = scenario.CheckpointSpec

	// ScenarioFailures arms a stochastic failure process on every cell
	// (Scenario.Failures).
	ScenarioFailures = scenario.FailureSpec

	// ScenarioJobs switches a scenario to cluster cells: a stream of jobs
	// arriving, queueing, and departing on Scales-node clusters
	// (Scenario.Jobs); see JOBS in DESIGN.md.
	ScenarioJobs = scenario.JobsSpec

	// ScenarioJobTemplate is one job class in a ScenarioJobs mix: a
	// workload spec plus its node count and draw weight.
	ScenarioJobTemplate = scenario.JobTemplateSpec

	// PatternSpec declares a time-varying intensity curve (constant, ramp,
	// burst, sine, piecewise, or a named preset) in operator units; it
	// modulates failure processes (ScenarioFailures.Pattern,
	// WithFailurePattern) and job arrivals (ScenarioJobs.Arrivals).
	PatternSpec = pattern.Spec

	// PatternCurve is a compiled intensity curve (PatternSpec.Curve).
	PatternCurve = pattern.Curve

	// JobsResult is a cluster cell's job-stream result (Result.Jobs):
	// per-job lifecycle reports plus makespan, utilization, and waits.
	JobsResult = jobs.Result

	// JobReport is one job's lifecycle record inside a JobsResult.
	JobReport = jobs.JobReport

	// Table is a rendered result table (String, TSV).
	Table = stats.Table
)

// PatternPresets lists the built-in pattern preset names in stable order.
func PatternPresets() []string { return pattern.Presets() }

// Cell is one finished cell of a sweep: its matrix coordinates and seed,
// plus the full run Result.
type Cell struct {
	scenario.Cell
	Result *Result
}

// LoadScenario reads and validates a scenario spec file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// ParseScenario decodes and validates a scenario spec from JSON, rejecting
// unknown fields.
func ParseScenario(r io.Reader) (*Scenario, error) { return scenario.Parse(r) }

// BuiltinScenario returns the named built-in scenario profile.
func BuiltinScenario(name string) (*Scenario, bool) { return scenario.BuiltIn(name) }

// ScenarioNames lists the built-in scenario profiles in stable order.
func ScenarioNames() []string { return scenario.BuiltInNames() }

// Sweep streams a scenario: every cell of the Scales × Modes × Reps matrix
// runs, fanned across workers (see WithWorkers), and each is yielded as it
// finishes — in completion order, not matrix order — so a caller can
// report progress, feed a dashboard, or stop early instead of waiting for
// the final table. Cell results themselves are deterministic (each is
// fully determined by the spec and its seed); only the yield order varies.
// SweepTable renders the deterministic aggregate.
//
// The first cell error stops the sweep: it is yielded once (with the
// failing cell's coordinates and a nil Result) and iteration ends. Breaking
// out of the loop early cancels the remaining cells; either way no
// simulation goroutine outlives the iteration. Canceling ctx surfaces as
// an error wrapping ErrCanceled.
func Sweep(ctx context.Context, sc *Scenario, opts ...Option) iter.Seq2[Cell, error] {
	return func(yield func(Cell, error) bool) {
		cfg := newConfig(scopeSweep)
		if err := cfg.apply(opts); err != nil {
			yield(Cell{}, err)
			return
		}
		spec, ins, err := cfg.sweepSpec(sc)
		if err != nil {
			yield(Cell{}, err)
			return
		}
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		cells := spec.Cells()
		ch := runner.Each(sctx, cfg.workers, cells, func(c scenario.Cell) (*Result, error) {
			return spec.RunCell(sctx, c, ins)
		})
		// Drain fully on every exit path so no worker blocks on a send.
		defer func() {
			cancel()
			for range ch {
			}
		}()
		for r := range ch {
			if r.Err != nil {
				yield(Cell{Cell: cells[r.Index]}, r.Err)
				return
			}
			if !yield(Cell{Cell: cells[r.Index], Result: r.Val}, nil) {
				return
			}
		}
		// All cells delivered — unless the context was canceled after the
		// last delivery (or before the first), which must not look like a
		// clean finish.
		if err := ctx.Err(); err != nil {
			yield(Cell{}, fmt.Errorf("gb: sweep: %w", ErrCanceled))
		}
	}
}

// SweepTable runs the whole scenario and renders its aggregate table — one
// row per (scale, mode), byte-identical at any worker count and across
// runs: a scenario file plus a seed IS the experiment.
func SweepTable(ctx context.Context, sc *Scenario, opts ...Option) (*Table, error) {
	cfg := newConfig(scopeSweep)
	if err := cfg.apply(opts); err != nil {
		return nil, err
	}
	spec, ins, err := cfg.sweepSpec(sc)
	if err != nil {
		return nil, err
	}
	return spec.RunObserved(ctx, cfg.workers, ins, nil)
}

// sweepSpec resolves the scenario the sweep options select. The caller's
// Scenario is never mutated: defaults, validation, and a WithSeed override
// all apply to a copy. The horizon option becomes per-cell
// instrumentation. WithCellMetrics is refused on cluster cells.
func (c *config) sweepSpec(sc *Scenario) (*Scenario, scenario.Instrument, error) {
	if sc == nil {
		return nil, scenario.Instrument{}, errBadSpec("nil scenario")
	}
	cp := *sc
	if c.jobStream != nil {
		cp.Jobs = c.jobStream
	}
	cp.Normalize()
	if c.seedSet {
		cp.Seed = c.seed
	}
	if err := cp.Validate(); err != nil {
		return nil, scenario.Instrument{}, fmt.Errorf("gb: %w: %v", ErrBadSpec, err)
	}
	if c.cellMetrics && cp.Jobs != nil {
		return nil, scenario.Instrument{}, errBadSpec("WithCellMetrics does not apply to scenario %q: its cells run a stream of jobs, each a simulation of its own, so a cell has no one metrics snapshot", cp.Name)
	}
	return &cp, scenario.Instrument{HorizonS: c.horizonS, Metrics: c.cellMetrics, RunWorkers: c.runWorkers}, nil
}
