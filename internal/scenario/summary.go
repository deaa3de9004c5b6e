package scenario

import (
	"repro/internal/failure"
	"repro/internal/harness"
)

// Summary is one finished cell's headline figures: its matrix coordinates
// and seed, the engine that ran, and the run's execution time, checkpoint
// count, and event count, plus failure and job-stream aggregates when the
// cell had them. It is the one cell summary every consumer reads — the
// sweep table, the gbd wire cell (its JSON encoding is the wire format),
// the tuner, and the paper's figures — so they agree by construction.
type Summary struct {
	Scale  int    `json:"scale"`
	Mode   string `json:"mode"`
	Rep    int    `json:"rep"`
	Seed   int64  `json:"seed"`
	Engine string `json:"engine"`
	// ExecSeconds is the execution time (the cluster makespan for a jobs
	// cell).
	ExecSeconds float64 `json:"execSeconds"`
	Epochs      int     `json:"epochs"`
	Events      uint64  `json:"events"`
	// Failures is nil when the cell injected no failures.
	Failures *FailureSummary `json:"failures,omitempty"`
	// Jobs is nil unless the cell simulated a job stream.
	Jobs *JobsSummary `json:"jobs,omitempty"`
}

// FailureSummary aggregates a cell's injected-failure outcomes.
type FailureSummary struct {
	Count             int     `json:"count"`
	LostGroupSeconds  float64 `json:"lostGroupSeconds"`
	LostGlobalSeconds float64 `json:"lostGlobalSeconds"`
	ReplayBytes       int64   `json:"replayBytes"`
	SavedSeconds      float64 `json:"savedSeconds"`
}

// JobsSummary aggregates a cluster cell's job stream.
type JobsSummary struct {
	Count           int     `json:"count"`
	Placement       string  `json:"placement"`
	Utilization     float64 `json:"utilization"`
	MeanWaitSeconds float64 `json:"meanWaitSeconds"`
	MaxWaitSeconds  float64 `json:"maxWaitSeconds"`
}

// Summarize folds one finished cell's Result into its Summary.
func Summarize(c Cell, res *harness.Result) Summary {
	s := Summary{
		Scale:       c.Scale,
		Mode:        c.Mode,
		Rep:         c.Rep,
		Seed:        c.Seed,
		Engine:      res.Name,
		ExecSeconds: res.ExecTime.Seconds(),
		Epochs:      res.Epochs,
		Events:      res.Events,
	}
	if len(res.Failures) > 0 {
		t := failure.Sum(res.Failures)
		s.Failures = &FailureSummary{
			Count:             t.Failures,
			LostGroupSeconds:  t.WorkLossGrp.Seconds(),
			LostGlobalSeconds: t.WorkLossGlb.Seconds(),
			ReplayBytes:       t.ReplayBytes,
			SavedSeconds:      t.WorkSaved().Seconds(),
		}
	}
	if j := res.Jobs; j != nil {
		s.Jobs = &JobsSummary{
			Count:           len(j.Jobs),
			Placement:       j.Placement,
			Utilization:     j.Utilization,
			MeanWaitSeconds: j.MeanWait.Seconds(),
			MaxWaitSeconds:  j.MaxWait.Seconds(),
		}
	}
	return s
}

// Fails returns the cell's failure aggregates, all zero when it injected
// none.
func (s Summary) Fails() FailureSummary {
	if s.Failures == nil {
		return FailureSummary{}
	}
	return *s.Failures
}
