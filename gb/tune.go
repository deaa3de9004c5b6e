package gb

import (
	"context"
	"io"

	"repro/internal/ckpt"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tune"
)

type (
	// TuneSpec declares one policy-tuning problem: a base Scenario (the
	// cluster, workload, and failure process the search holds fixed) plus
	// the candidate grid — modes × groupMax × checkpoint intervals ×
	// storage — and the successive-halving rung ladder to spend the
	// budget on. Build one from JSON with LoadTuneSpec/ParseTuneSpec or
	// as a literal.
	TuneSpec = tune.Spec

	// TuneRung is one resolution level of a TuneSpec's ladder.
	TuneRung = tune.Rung

	// TuneStorage is one checkpoint-placement configuration on the
	// search's storage axis.
	TuneStorage = tune.Storage

	// TuneCandidate is one point of the policy grid — and the type of a
	// report's winner.
	TuneCandidate = tune.Candidate

	// TuneReport is a search's structured recommendation: winner, score,
	// rung trail, sensitivity curves, budget split. Its JSON form is the
	// wire contract; Text() renders stable golden-pinnable tables.
	TuneReport = tune.Report

	// TuneRungReport is one completed rung inside a TuneReport (and the
	// payload of WithTuneProgress callbacks).
	TuneRungReport = tune.RungReport

	// TuneCurve is one dimension's sensitivity around the winner.
	TuneCurve = tune.Curve

	// JobTemplate is one job class of a cluster stream's mix
	// (jobs-package form; ScenarioJobTemplate is the spec-file form).
	JobTemplate = jobs.Template
)

// LoadTuneSpec reads, defaults, and validates a tune spec file.
func LoadTuneSpec(path string) (*TuneSpec, error) { return tune.Load(path) }

// ParseTuneSpec decodes, defaults, and validates a tune spec from JSON,
// rejecting unknown fields.
func ParseTuneSpec(r io.Reader) (*TuneSpec, error) { return tune.Parse(r) }

// TuneSpecKey returns the tune spec's canonical identity: the hex SHA-256
// of its canonical encoding (defaults and the Young-seeded interval grid
// written out). A search's report is fully determined by the spec, so
// equal keys mean byte-identical reports.
func TuneSpecKey(ts *TuneSpec) (string, error) { return tune.Key(ts) }

// Tune searches the spec's policy grid for the configuration minimizing
// its objective, by successive halving over real simulated cells: a wide
// first rung of cheap cells, the top 1/eta promoted to each
// fuller-resolution rung, every cell run on the sweep engine under the
// determinism contract. The report is byte-identical at every worker
// count and across runs — a tune spec plus its seed IS the experiment.
//
// Accepted options: WithWorkers (concurrent cells), WithSeed (overrides
// the base scenario's seed), WithRunWorkers (threads inside each cell's
// event loop), and WithTuneProgress (per-rung progress). Everything else
// belongs to the spec.
func Tune(ctx context.Context, ts *TuneSpec, opts ...Option) (*TuneReport, error) {
	cfg := newConfig(scopeTune)
	if err := cfg.apply(opts); err != nil {
		return nil, err
	}
	if ts == nil {
		return nil, errBadSpec("nil tune spec")
	}
	spec := ts
	if cfg.seedSet {
		cp := *ts
		cp.Seed = cfg.seed
		spec = &cp
	}
	return tune.Search(ctx, spec, tune.Options{
		Run:     cfg.tuneRunner(),
		Workers: cfg.workers,
		OnRung:  cfg.tuneProgress,
	})
}

// tuneRunner backs the search with scenario.Matrix: one eval is the
// derived scenario's whole (single-candidate) matrix, run serially in
// matrix order — the search parallelizes across evals, so rep-level
// serialism costs nothing and keeps the summary order spec-defined.
func (c *config) tuneRunner() tune.Runner {
	runWorkers := c.runWorkers
	return func(ctx context.Context, ev tune.Eval) ([]CellSummary, error) {
		spec, _, err := newConfig(scopeCell).sweepSpec(ev.Spec)
		if err != nil {
			return nil, err
		}
		// The horizon takes WithHorizon's path (seconds → Time → seconds),
		// as gbd's cells do, so both backends stop a cell at the same instant.
		ins := scenario.Instrument{HorizonS: sim.Seconds(ev.HorizonS).Seconds(), RunWorkers: runWorkers}
		return scenario.Matrix(ctx, spec, 1, ins, func(cell CellKey, res *Result) (CellSummary, error) {
			return scenario.Summarize(cell, res), nil
		})
	}
}

// YoungInterval is Young's first-order optimal checkpoint interval
// √(2·C·MTBF) for checkpoint cost C — the analytic seed the tuner centers
// its interval grid on. Non-positive inputs yield 0.
func YoungInterval(ckptCost, mtbf Time) Time { return ckpt.YoungInterval(ckptCost, mtbf) }

// ExpectedWaste is the first-order waste model c/t + t/(2·MTBF): the
// expected fraction of execution lost to checkpoint writes plus
// post-failure re-execution at interval t. Degenerate inputs (t ≤ 0,
// mtbf ≤ 0) yield +Inf.
func ExpectedWaste(c, t, mtbf Time) float64 { return ckpt.ExpectedWaste(c, t, mtbf) }

// WasteAtYoung is the waste model evaluated at Young's own interval,
// √(2·C/MTBF) — the analytic floor a measured policy is compared against.
// Non-positive MTBF yields +Inf; non-positive cost yields 0.
func WasteAtYoung(ckptCost, mtbf Time) float64 { return ckpt.WasteAtYoung(ckptCost, mtbf) }

// GroupInterval rescales a base checkpoint interval for a group failing at
// rateRatio times the system mean (Young's 1/√rate law); non-positive
// ratios keep the base.
func GroupInterval(base Time, rateRatio float64) Time { return ckpt.GroupInterval(base, rateRatio) }

// InterarrivalForUtilization computes the mean job interarrival gap that
// drives a cluster of nodes to a target utilization under a template mix
// with the given expected per-job execution times — the knob that turns
// "how loaded should the cluster be" into a ScenarioJobs field.
func InterarrivalForUtilization(nodes int, templates []JobTemplate, execS []Time, util float64) (Time, error) {
	return jobs.InterarrivalForUtilization(nodes, templates, execS, util)
}
