package paper

import (
	"context"

	"repro/internal/stats"
)

// Experiment is one registered reproduction: a stable id (the paper's
// figure or table number), a one-line title, and a runner producing the
// tables that figure reports.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, o Options) ([]*stats.Table, error)
}

// experiments lists every reproduction in the paper's order. cmd/gbexp
// derives its flag help and the "all" sweep from this slice, so an
// experiment registered here is immediately reachable from the CLI and the
// two can never drift.
var experiments = []Experiment{
	{"fig1", "aggregate coordination time of one global checkpoint (HPL, NORM)", Fig1},
	{"fig2", "CG under VCL: gap fraction of checkpoint windows", func(ctx context.Context, o Options) ([]*stats.Table, error) {
		r, err := Fig2(ctx, o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table}, nil
	}},
	{"table1", "trace-derived group formation for HPL, 32 processes", Table1},
	{"fig5", "HPL execution time with one checkpoint", Fig5},
	{"fig6", "summed checkpoint and restart time (HPL)", Fig6},
	{"fig7", "data resent during restart", Fig7},
	{"fig8", "resend operations during restart", Fig8},
	{"fig9", "checkpoint time breakdown by stage", Fig9},
	{"fig10", "effect of periodic checkpoints", Fig10},
	{"fig11", "CG class C checkpoint/restart sweep", Fig11},
	{"fig12", "SP class C checkpoint/restart sweep", Fig12},
	{"fig13", "effect of scale with remote checkpoint storage", Fig13},
	{"fig14", "average time per checkpoint, GP vs VCL", Fig14},
}

// Experiments returns the registry in paper order. The slice is shared;
// callers must not mutate it.
func Experiments() []Experiment { return experiments }

// IDs returns every registered experiment id in paper order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return ids
}

// Lookup resolves an experiment id, reporting whether it is registered.
func Lookup(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
