package scenario

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/sim"
)

// runJobsCell executes one cluster cell: a stream of jobs on c.Scale nodes,
// each job an inner harness run under the cell's mode, checkpoint schedule,
// and failure process. The returned harness.Result aggregates the stream —
// ExecTime is the cluster makespan, Epochs/Events/Failures sum the inner
// runs — and carries the full per-job report in Result.Jobs.
//
// Determinism: the stream spec seeds from the cell seed, each job's inner
// run seeds from its job seed, and jobs simulate sequentially in job-ID
// order. Inner runs still partition across RunWorkers individually, so a
// cluster cell is byte-identical at every worker count like any other cell.
func (s *Spec) runJobsCell(ctx context.Context, c Cell, ins Instrument) (*harness.Result, error) {
	clusterCfg, err := s.Cluster.Config()
	if err != nil {
		return nil, err
	}
	j := s.Jobs
	placement, err := jobs.PolicyNamed(j.Placement)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	spec := jobs.Spec{
		Nodes:            c.Scale,
		Count:            j.Count,
		MeanInterarrival: sim.Seconds(j.MeanInterarrivalS),
		Placement:        placement,
		Templates:        make([]jobs.Template, len(j.Templates)),
		Seed:             c.Seed,
	}
	if j.Arrivals != nil {
		curve, err := j.Arrivals.Curve()
		if err != nil {
			return nil, fmt.Errorf("scenario %q: jobs arrivals: %w", s.Name, err)
		}
		spec.Arrivals = curve
	}
	for i, tp := range j.Templates {
		spec.Templates[i] = jobs.Template{
			Label:  fmt.Sprintf("%s/%d", tp.Kind, tp.Ranks),
			Ranks:  tp.Ranks,
			Weight: tp.Weight,
		}
	}

	mode := harness.Mode(c.Mode)
	agg := &harness.Result{N: c.Scale, Name: string(mode)}
	runner := func(job jobs.Job) (jobs.Outcome, error) {
		tp := j.Templates[job.Template]
		inner, err := s.harnessSpec(tp.Build(job.Ranks), mode, job.Seed, clusterCfg, ins)
		if err != nil {
			return jobs.Outcome{}, err
		}
		res, err := harness.Run(ctx, inner)
		if err != nil {
			return jobs.Outcome{}, err
		}
		agg.Epochs += res.Epochs
		agg.Events += res.Events
		agg.Failures = append(agg.Failures, res.Failures...)
		return jobOutcome(mode, res), nil
	}

	stream, err := jobs.Run(spec, runner)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	agg.ExecTime = stream.Makespan
	agg.Jobs = stream
	return agg, nil
}

// jobOutcome folds an inner run into the occupancy the job charges its
// nodes: its execution time plus the restart work its checkpoint mode loses.
// Group-based modes roll back only the failed group; NORM's one global group
// rolls back everyone — so under the same failure stream a NORM cluster's
// jobs hold their nodes longer, which is the paper's argument at the
// cluster level.
func jobOutcome(mode harness.Mode, res *harness.Result) jobs.Outcome {
	out := jobs.Outcome{
		Exec:   res.ExecTime,
		Epochs: res.Epochs,
		Events: res.Events,
	}
	for _, f := range res.Failures {
		out.Failures++
		out.WorkLossGrp += f.WorkLossGrp
		out.WorkLossGlb += f.WorkLossGlb
		out.ReplayBytes += f.ReplayBytes
	}
	if mode == harness.NORM {
		out.Loss = out.WorkLossGlb
	} else {
		out.Loss = out.WorkLossGrp
	}
	return out
}
