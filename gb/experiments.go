package gb

import (
	"context"

	"repro/internal/paper"
)

type (
	// Experiment is one registered paper reproduction: a stable id (the
	// figure or table number), a one-line title, and a runner producing
	// the tables that figure reports.
	Experiment = paper.Experiment

	// ExperimentOptions scales the experiments (repetitions, quick sizes,
	// worker count). The zero value is the paper-faithful configuration.
	ExperimentOptions = paper.Options

	// Fig2Result carries Figure 2's gap analysis plus its renderable
	// ASCII timelines — the one reproduction whose output is more than
	// tables.
	Fig2Result = paper.Fig2Result
)

// Experiments returns the reproduction registry in paper order. The slice
// is shared; callers must not mutate it.
func Experiments() []Experiment { return paper.Experiments() }

// ExperimentIDs returns every registered experiment id in paper order.
func ExperimentIDs() []string { return paper.IDs() }

// LookupExperiment resolves an experiment id, reporting whether it is
// registered.
func LookupExperiment(id string) (Experiment, bool) { return paper.Lookup(id) }

// Fig2 runs the Figure 2 reproduction directly, for callers that want the
// trace timelines the registry's uniform table interface does not carry.
func Fig2(ctx context.Context, o ExperimentOptions) (*Fig2Result, error) {
	return paper.Fig2(ctx, o)
}
