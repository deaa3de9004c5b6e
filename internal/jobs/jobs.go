// Package jobs simulates a cluster-level job stream on top of the per-job
// checkpoint/restart harness. Jobs arrive on a (possibly pattern-modulated)
// Poisson stream, queue FIFO, are placed on free nodes by a pluggable policy,
// occupy their nodes for their simulated execution time plus the restart
// work-loss their checkpoint mode implies, and depart — yielding cluster
// utilization and per-job wait/makespan tables.
//
// The package deliberately does not import the harness: callers supply a
// Runner callback that maps a Job to its simulated Outcome. That keeps the
// dependency arrow pointing one way (harness results can embed a jobs
// result) and makes the queueing engine testable with synthetic outcomes.
//
// Determinism: the arrival chain, template draws, and queueing decisions
// consume rng variates in a fixed order from a dedicated source, and the
// event loop breaks time ties by (departures first, then job id) — so a spec
// plus seed fully determines every report field, independent of worker
// counts in the Runner's own simulation.
package jobs

import (
	"fmt"
	"math/rand"

	"repro/internal/failure"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Template describes one job class in the stream's mix.
type Template struct {
	// Label names the class in per-job reports (e.g. a workload name).
	Label string
	// Ranks is the number of nodes the job occupies (one rank per node).
	Ranks int
	// Weight is the class's relative draw frequency (≥ 1).
	Weight int
}

// Spec configures a job-stream simulation.
type Spec struct {
	// Nodes is the cluster size.
	Nodes int
	// Count is the number of jobs to arrive.
	Count int
	// MeanInterarrival is the base mean gap between arrivals.
	MeanInterarrival sim.Time
	// Arrivals optionally modulates the arrival intensity over time
	// (nil = constant level 1, i.e. a plain Poisson stream).
	Arrivals pattern.Curve
	// Placement picks nodes for each job (nil = FirstFit).
	Placement Placement
	// Templates is the job mix (at least one).
	Templates []Template
	// Seed drives arrivals and template draws.
	Seed int64
}

// Validate rejects an inconsistent spec with an error naming the field.
func (s Spec) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("jobs: nodes=%d, need ≥ 1", s.Nodes)
	}
	if s.Count < 1 {
		return fmt.Errorf("jobs: count=%d, need ≥ 1", s.Count)
	}
	if s.MeanInterarrival <= 0 {
		return fmt.Errorf("jobs: meanInterarrival=%v, need > 0", s.MeanInterarrival)
	}
	if s.Arrivals != nil {
		if err := pattern.Validate(s.Arrivals); err != nil {
			return fmt.Errorf("jobs: arrivals: %w", err)
		}
	}
	if len(s.Templates) == 0 {
		return fmt.Errorf("jobs: no job templates")
	}
	for i, tp := range s.Templates {
		if tp.Ranks < 1 || tp.Ranks > s.Nodes {
			return fmt.Errorf("jobs: template %d (%s): ranks=%d, need 1..%d (cluster nodes)",
				i, tp.Label, tp.Ranks, s.Nodes)
		}
		if tp.Weight < 1 {
			return fmt.Errorf("jobs: template %d (%s): weight=%d, need ≥ 1", i, tp.Label, tp.Weight)
		}
	}
	return nil
}

// Job is one arrival in the stream.
type Job struct {
	// ID numbers jobs in arrival order, from 0.
	ID int
	// Template indexes Spec.Templates.
	Template int
	// Label and Ranks copy the template for convenience.
	Label string
	Ranks int
	// Arrival is the job's arrival instant.
	Arrival sim.Time
	// Seed is the per-job seed the Runner should simulate under.
	Seed int64
}

// Outcome is what the Runner reports for one simulated job.
type Outcome struct {
	// Exec is the job's simulated wall-clock execution time.
	Exec sim.Time
	// Loss is the restart work-loss charged to the job's node occupancy
	// (mode-dependent: group modes lose group work, NORM loses global).
	Loss sim.Time
	// Epochs and Events describe the inner run, for reports.
	Epochs int
	Events uint64
	// Failures and the loss split carry the group-vs-global comparison
	// through to cluster-level aggregates.
	Failures    int
	WorkLossGrp sim.Time
	WorkLossGlb sim.Time
	ReplayBytes int64
}

// Occupancy is the node-holding time the outcome implies.
func (o Outcome) Occupancy() sim.Time { return o.Exec + o.Loss }

// Runner simulates one job and reports its outcome. It is called once per
// job, in job-ID order, from a single goroutine.
type Runner func(Job) (Outcome, error)

// JobReport is one job's full lifecycle record.
type JobReport struct {
	Job
	Outcome
	// Start is when the job was placed; Wait = Start − Arrival.
	Start sim.Time
	Wait  sim.Time
	// End = Start + Occupancy.
	End sim.Time
	// Nodes are the assigned node ids (ascending); Fragments counts their
	// contiguous runs (1 = co-located).
	Nodes     []int
	Fragments int
}

// Result aggregates a job-stream simulation.
type Result struct {
	Spec      Spec
	Placement string
	Jobs      []JobReport
	// Makespan is the last departure instant.
	Makespan sim.Time
	// Utilization is Σ ranks×occupancy / (nodes × makespan), in (0, 1].
	Utilization float64
	MeanWait    sim.Time
	MaxWait     sim.Time
	// Failure aggregates across all jobs' inner runs.
	Failures    int
	WorkLossGrp sim.Time
	WorkLossGlb sim.Time
}

// Run simulates the stream. Arrivals and template draws come first (a fixed
// rng order), then the Runner simulates each job, then the queueing loop
// replays arrivals against departures.
func Run(spec Spec, run Runner) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if run == nil {
		return nil, fmt.Errorf("jobs: nil runner")
	}
	placement := spec.Placement
	if placement == nil {
		placement = FirstFit{}
	}

	js, err := arrivals(spec)
	if err != nil {
		return nil, err
	}

	reports := make([]JobReport, len(js))
	for i, j := range js {
		out, err := run(j)
		if err != nil {
			return nil, fmt.Errorf("jobs: job %d (%s): %w", j.ID, j.Label, err)
		}
		if out.Exec <= 0 {
			return nil, fmt.Errorf("jobs: job %d (%s): runner reported exec=%v, need > 0", j.ID, j.Label, out.Exec)
		}
		if out.Loss < 0 {
			return nil, fmt.Errorf("jobs: job %d (%s): runner reported loss=%v, need ≥ 0", j.ID, j.Label, out.Loss)
		}
		reports[i] = JobReport{Job: j, Outcome: out}
	}

	if err := schedule(spec, placement, reports); err != nil {
		return nil, err
	}

	res := &Result{Spec: spec, Placement: placement.Name(), Jobs: reports}
	var busy float64
	var waitSum sim.Time
	for i := range reports {
		r := &reports[i]
		if r.End > res.Makespan {
			res.Makespan = r.End
		}
		busy += float64(r.Ranks) * float64(r.Occupancy())
		waitSum += r.Wait
		if r.Wait > res.MaxWait {
			res.MaxWait = r.Wait
		}
		res.Failures += r.Failures
		res.WorkLossGrp += r.WorkLossGrp
		res.WorkLossGlb += r.WorkLossGlb
	}
	res.MeanWait = waitSum / sim.Time(len(reports))
	res.Utilization = busy / (float64(spec.Nodes) * float64(res.Makespan))
	return res, nil
}

// arrivals draws the arrival chain and template picks. The interarrival gap
// and the template draw alternate per job, so the rng order is fixed.
func arrivals(spec Spec) ([]Job, error) {
	curve := spec.Arrivals
	if curve == nil {
		curve = pattern.Constant{Level: 1}
	}
	proc, err := failure.NewModulated(failure.Poisson{MTBF: spec.MeanInterarrival}, curve)
	if err != nil {
		return nil, fmt.Errorf("jobs: arrivals: %w", err)
	}
	totalWeight := 0
	for _, tp := range spec.Templates {
		totalWeight += tp.Weight
	}
	rng := sim.NewRand(spec.Seed)
	js := make([]Job, spec.Count)
	var now sim.Time
	for i := range js {
		now += proc.NextGapAt(now, rng)
		ti := pickTemplate(spec.Templates, totalWeight, rng)
		js[i] = Job{
			ID:       i,
			Template: ti,
			Label:    spec.Templates[ti].Label,
			Ranks:    spec.Templates[ti].Ranks,
			Arrival:  now,
			Seed:     spec.Seed + int64(i+1)*1_000_003,
		}
	}
	return js, nil
}

func pickTemplate(ts []Template, totalWeight int, rng *rand.Rand) int {
	w := rng.Intn(totalWeight)
	for i, tp := range ts {
		w -= tp.Weight
		if w < 0 {
			return i
		}
	}
	return len(ts) - 1
}

// schedule replays the queueing simulation: strict FIFO over a free-node
// bitmap, departures processed before same-instant placement attempts.
func schedule(spec Spec, placement Placement, reports []JobReport) error {
	free := make([]bool, spec.Nodes)
	for i := range free {
		free[i] = true
	}

	type departure struct {
		at sim.Time
		id int
	}
	var running []departure
	pop := func() departure {
		// Earliest departure; ties break by job id so the replay is total-ordered.
		best := 0
		for i := 1; i < len(running); i++ {
			if running[i].at < running[best].at ||
				(running[i].at == running[best].at && running[i].id < running[best].id) {
				best = i
			}
		}
		d := running[best]
		running = append(running[:best], running[best+1:]...)
		return d
	}
	release := func(id int) {
		for _, n := range reports[id].Nodes {
			free[n] = true
		}
	}

	// drain releases every departure at or before now, so placement sees the
	// full free set of that instant.
	drain := func(now sim.Time) {
		for len(running) > 0 {
			earliest := 0
			for i := 1; i < len(running); i++ {
				if running[i].at < running[earliest].at ||
					(running[i].at == running[earliest].at && running[i].id < running[earliest].id) {
					earliest = i
				}
			}
			if running[earliest].at > now {
				return
			}
			release(pop().id)
		}
	}

	// Strict FIFO: job k never starts before job k-1 did (no backfill), so
	// the head-of-queue job's start time floors every later job's.
	var lastStart sim.Time
	for next := 0; next < len(reports); next++ {
		r := &reports[next]
		now := r.Arrival
		if now < lastStart {
			now = lastStart
		}
		for {
			drain(now)
			if nodes := placement.Place(free, r.Ranks); nodes != nil {
				r.Start = now
				r.Wait = r.Start - r.Arrival
				r.End = r.Start + r.Occupancy()
				r.Nodes = nodes
				r.Fragments = fragments(nodes)
				for _, n := range nodes {
					free[n] = false
				}
				running = append(running, departure{at: r.End, id: r.ID})
				lastStart = r.Start
				break
			}
			if len(running) == 0 {
				return fmt.Errorf("jobs: job %d (%s, %d ranks) can never be placed under %s on an empty %d-node cluster",
					r.ID, r.Label, r.Ranks, placement.Name(), spec.Nodes)
			}
			d := pop()
			release(d.id)
			if d.at > now {
				now = d.at
			}
		}
	}
	return nil
}

// Table renders the per-job lifecycle table.
func (r *Result) Table() *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("job stream: %d jobs on %d nodes, placement=%s",
			len(r.Jobs), r.Spec.Nodes, r.Placement),
		Columns: []string{"job", "class", "ranks", "arrive_s", "wait_s", "exec_s", "loss_s", "end_s", "frags", "fails"},
	}
	for _, j := range r.Jobs {
		t.AddRow(j.ID, j.Label, j.Ranks,
			j.Arrival.Seconds(), j.Wait.Seconds(), j.Exec.Seconds(),
			j.Loss.Seconds(), j.End.Seconds(), j.Fragments, j.Failures)
	}
	t.AddNote("makespan %.2fs, utilization %.2f%%, mean wait %.2fs, max wait %.2fs",
		r.Makespan.Seconds(), 100*r.Utilization, r.MeanWait.Seconds(), r.MaxWait.Seconds())
	if r.Failures > 0 {
		t.AddNote("%d failures: lost %.2fs group-restart vs %.2fs global-restart",
			r.Failures, r.WorkLossGrp.Seconds(), r.WorkLossGlb.Seconds())
	}
	return t
}
