package tune

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Eval is one unit of work the Runner executes: a derived single-candidate
// scenario (one scale, one mode, Reps cells) plus the rung's horizon.
type Eval struct {
	// Spec is the derived scenario, already normalized and validated.
	Spec *scenario.Spec
	// HorizonS caps each cell's virtual time in seconds; 0 = unbounded.
	// Runners must apply exactly this value — substituting a service
	// default would fork the search away from what the same spec computes
	// in-process.
	HorizonS float64
	// Candidate and Rung locate the eval in the search, for labeling.
	Candidate Candidate
	Rung      int
}

// Runner executes one Eval and returns its cells' summaries in matrix
// order. An error wrapping harness.ErrHorizon marks the candidate
// infeasible at that rung (it is eliminated, memoized like any result, and
// the search continues); any other error aborts the search. Runners are
// called concurrently and must be safe for concurrent use.
type Runner func(ctx context.Context, ev Eval) ([]scenario.Summary, error)

// Options configures a Search beyond the spec.
type Options struct {
	// Run executes evals (required).
	Run Runner
	// Workers bounds how many evals run concurrently (≤ 0 = all cores).
	// The report is byte-identical at every worker count.
	Workers int
	// OnRung, when set, observes each completed rung in order — progress
	// for CLIs and SSE streams. Called from the searching goroutine.
	OnRung func(RungReport)
	// Metrics, when set, receives the tuner's budget counters:
	// tune_cells_total, tune_rungs_total, tune_cache_hits_total.
	Metrics *metrics.Collector
}

// score pairs a candidate with its measured objective at some rung.
// Infeasible candidates (horizon trips) carry +Inf.
type score struct {
	cand Candidate
	val  float64
}

func (s score) feasible() bool { return !math.IsInf(s.val, 1) }

// memoEntry is one completed eval: its cells, or its deterministic
// infeasibility. Keyed on (canonical derived spec, horizon) — the same
// identity the gbd cell cache uses — so repeated evaluations of one
// candidate (across rungs with equal resolution, in sensitivity sweeps, as
// the baseline) are free and, more importantly, *counted* the same at every
// worker count.
type memoEntry struct {
	cells      []scenario.Summary
	infeasible bool
}

// Search runs successive halving over the spec's candidate grid and
// returns the recommendation report. The caller's spec is never mutated:
// defaults and validation apply to a deep copy. The report depends only on
// the spec (and the Runner's own determinism) — never on Options.Workers
// or scheduling order.
func Search(ctx context.Context, ts *Spec, opts Options) (*Report, error) {
	if opts.Run == nil {
		return nil, badSpec("Search needs Options.Run (a Runner)")
	}
	ns, err := normalized(ts)
	if err != nil {
		return nil, err
	}
	s := &searcher{spec: ns, opts: opts, memo: map[string]memoEntry{}}
	if c := opts.Metrics; c != nil {
		s.cellsTotal = c.Counter("tune_cells_total", "cells", "simulation cells computed by the tuner")
		s.rungsTotal = c.Counter("tune_rungs_total", "rungs", "successive-halving rungs evaluated")
		s.hitsTotal = c.Counter("tune_cache_hits_total", "cells", "tuner cells served from the evaluation memo")
	}
	return s.run(ctx)
}

// normalized deep-copies, defaults, and validates a tune spec.
func normalized(ts *Spec) (*Spec, error) {
	if ts == nil {
		return nil, badSpec("nil tune spec")
	}
	cp := *ts
	cp.Base = ts.Base.Clone()
	cp.Modes = append([]string(nil), ts.Modes...)
	cp.GroupMax = append([]int(nil), ts.GroupMax...)
	cp.IntervalsS = append([]float64(nil), ts.IntervalsS...)
	cp.Storage = append([]Storage(nil), ts.Storage...)
	cp.Rungs = append([]Rung(nil), ts.Rungs...)
	if err := cp.Normalize(); err != nil {
		return nil, err
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}

type searcher struct {
	spec *Spec
	opts Options

	memo          map[string]memoEntry
	cells         int // cells requested (memo hits included)
	cellsComputed int
	memoHits      int

	cellsTotal, rungsTotal, hitsTotal *metrics.Counter
}

func (s *searcher) run(ctx context.Context) (*Report, error) {
	ts := s.spec
	rep := &Report{
		Name:       ts.Base.Name,
		Objective:  ts.Objective,
		Units:      objectiveUnits(ts.Objective),
		Candidates: len(ts.Candidates()),
		Scale:      ts.Rungs[len(ts.Rungs)-1].Scale,
	}
	young, waste, err := ts.analyticSeed()
	if err != nil {
		return nil, err
	}
	rep.YoungIntervalS = roundSig(young, 6)
	rep.AnalyticWasteFrac = roundSig(waste, 6)

	// The halving ladder.
	cands := ts.Candidates()
	var best score
	for i, r := range ts.Rungs {
		scores, err := s.batch(ctx, cands, i)
		if err != nil {
			return nil, err
		}
		sortScores(scores, cands)
		feasible := 0
		for _, sc := range scores {
			if sc.feasible() {
				feasible++
			}
		}
		if feasible == 0 {
			return nil, fmt.Errorf("tune: %w: every candidate at rung %d tripped the %gs horizon", harness.ErrHorizon, i, r.HorizonS)
		}
		keep := survivorCount(len(scores), ts.Eta)
		if i == len(ts.Rungs)-1 {
			keep = 1
		}
		if keep > feasible {
			keep = feasible
		}
		best = scores[0]
		rr := RungReport{
			Rung: i, Scale: r.Scale, Reps: r.Reps, HorizonS: r.HorizonS,
			Candidates: len(scores), Survivors: keep,
			Cells: len(scores) * r.Reps,
			Best:  best.cand, BestScore: best.val,
		}
		rep.Rungs = append(rep.Rungs, rr)
		if s.rungsTotal != nil {
			s.rungsTotal.Inc()
		}
		if s.opts.OnRung != nil {
			s.opts.OnRung(rr)
		}
		next := make([]Candidate, keep)
		for j := range next {
			next[j] = scores[j].cand
		}
		cands = next
	}
	rep.Winner, rep.Score = best.cand, best.val

	// Baseline guard: the search result is only a recommendation if it
	// beats the spec author's own policy at the same resolution. If it
	// does not, recommend the baseline — the tuner is then structurally
	// never worse than the human default.
	if bc, ok := ts.baseline(); ok {
		scores, err := s.batch(ctx, []Candidate{bc}, len(ts.Rungs)-1)
		if err != nil {
			return nil, err
		}
		b := &Baseline{Candidate: bc}
		if sc := scores[0]; sc.feasible() {
			v := sc.val
			b.Score = &v
			if sc.val < rep.Score {
				b.Won = true
				rep.Winner, rep.Score = bc, sc.val
			}
		}
		rep.Baseline = b
	}

	// Sensitivity: vary one dimension at a time around the winner, at
	// final-rung resolution. The winner's own point is a memo hit.
	curves, err := s.sensitivity(ctx, rep.Winner)
	if err != nil {
		return nil, err
	}
	rep.Sensitivity = curves

	rep.Cells, rep.CellsComputed, rep.MemoHits = s.cells, s.cellsComputed, s.memoHits
	return rep, nil
}

// batch evaluates one set of candidates at one rung, serving repeats from
// the memo. Memo accounting happens on the candidate list — before any
// scheduling — so hit counts are a function of the spec alone.
func (s *searcher) batch(ctx context.Context, cands []Candidate, rung int) ([]score, error) {
	ts := s.spec
	r := ts.Rungs[rung]
	keys := make([]string, len(cands))
	var missKeys []string
	var missEvals []Eval
	seen := map[string]bool{}
	for i, c := range cands {
		sp := ts.buildSpec(c, r)
		key, err := scenario.Key(sp)
		if err != nil {
			return nil, badSpec("candidate %s: %v", c.Label(), err)
		}
		key = fmt.Sprintf("%s|h%g", key, r.HorizonS)
		keys[i] = key
		s.cells += r.Reps
		if _, ok := s.memo[key]; ok || seen[key] {
			s.memoHits += r.Reps
			if s.hitsTotal != nil {
				s.hitsTotal.Add(int64(r.Reps))
			}
			continue
		}
		seen[key] = true
		missKeys = append(missKeys, key)
		missEvals = append(missEvals, Eval{Spec: sp, HorizonS: r.HorizonS, Candidate: c, Rung: rung})
	}
	entries, err := runner.MapCtx(ctx, s.opts.Workers, missEvals, func(ev Eval) (memoEntry, error) {
		cells, err := s.opts.Run(ctx, ev)
		if err != nil {
			if errors.Is(err, harness.ErrHorizon) {
				return memoEntry{infeasible: true}, nil
			}
			return memoEntry{}, fmt.Errorf("tune: candidate %s at rung %d: %w", ev.Candidate.Label(), ev.Rung, err)
		}
		if len(cells) != ev.Spec.Reps {
			return memoEntry{}, fmt.Errorf("tune: candidate %s at rung %d: runner returned %d cells, spec has %d reps", ev.Candidate.Label(), ev.Rung, len(cells), ev.Spec.Reps)
		}
		return memoEntry{cells: cells}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		s.memo[missKeys[i]] = e
		s.cellsComputed += r.Reps
		if s.cellsTotal != nil {
			s.cellsTotal.Add(int64(r.Reps))
		}
	}
	scores := make([]score, len(cands))
	for i, c := range cands {
		scores[i] = score{cand: c, val: s.scoreOf(c, r, s.memo[keys[i]])}
	}
	return scores, nil
}

// scoreOf folds one eval's cells into the candidate's objective value:
// the mean over reps of the per-cell score. "lost" is the rank-seconds a
// failure costs under the candidate's recovery scope (group modes replay
// the group, NORM rolls back every rank); "makespan" adds the per-rank
// share of that loss to the cell's execution time, approximating the
// restart-extended completion time in seconds.
func (s *searcher) scoreOf(c Candidate, r Rung, e memoEntry) float64 {
	if e.infeasible {
		return math.Inf(1)
	}
	var sum float64
	for _, m := range e.cells {
		lost := m.Fails().LostGroupSeconds
		if c.Mode == string(harness.NORM) {
			lost = m.Fails().LostGlobalSeconds
		}
		switch s.spec.Objective {
		case "lost":
			sum += lost
		default:
			sum += m.ExecSeconds + lost/float64(r.Scale)
		}
	}
	return sum / float64(len(e.cells))
}

// sortScores orders by objective value, ties broken by grid position —
// enumeration order is the only order the spec defines, so equal-scoring
// candidates promote deterministically.
func sortScores(scores []score, gridOrder []Candidate) {
	pos := make(map[Candidate]int, len(gridOrder))
	for i, c := range gridOrder {
		pos[c] = i
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].val != scores[j].val {
			return scores[i].val < scores[j].val
		}
		return pos[scores[i].cand] < pos[scores[j].cand]
	})
}

// sensitivity evaluates each >1-valued grid dimension through the winner,
// at final-rung resolution, one batch per dimension.
func (s *searcher) sensitivity(ctx context.Context, winner Candidate) ([]Curve, error) {
	ts := s.spec
	final := len(ts.Rungs) - 1
	var curves []Curve
	dim := func(name string, n int, candAt func(int) Candidate, label func(int) string) error {
		if n < 2 {
			return nil
		}
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = candAt(i)
		}
		scores, err := s.batch(ctx, cands, final)
		if err != nil {
			return err
		}
		curve := Curve{Dimension: name}
		for i, sc := range scores {
			p := CurvePoint{Value: label(i)}
			if sc.feasible() {
				v := sc.val
				p.Score = &v
			}
			curve.Points = append(curve.Points, p)
		}
		curves = append(curves, curve)
		return nil
	}
	if err := dim("mode", len(ts.Modes),
		func(i int) Candidate {
			c := winner
			c.Mode = ts.Modes[i]
			if c.Mode != string(harness.GP) {
				c.GroupMax = 0
			} else if c.GroupMax == 0 && len(ts.GroupMax) > 0 {
				c.GroupMax = ts.GroupMax[0]
			}
			return c
		},
		func(i int) string { return ts.Modes[i] }); err != nil {
		return nil, err
	}
	if winner.Mode == string(harness.GP) {
		if err := dim("groupMax", len(ts.GroupMax),
			func(i int) Candidate { c := winner; c.GroupMax = ts.GroupMax[i]; return c },
			func(i int) string { return fmt.Sprintf("%d", ts.GroupMax[i]) }); err != nil {
			return nil, err
		}
	}
	if err := dim("intervalS", len(ts.IntervalsS),
		func(i int) Candidate { c := winner; c.IntervalS = ts.IntervalsS[i]; return c },
		func(i int) string { return fnum(ts.IntervalsS[i]) }); err != nil {
		return nil, err
	}
	if err := dim("storage", len(ts.Storage),
		func(i int) Candidate { c := winner; c.Storage = ts.Storage[i]; return c },
		func(i int) string { return ts.Storage[i].Label() }); err != nil {
		return nil, err
	}
	return curves, nil
}

func objectiveUnits(obj string) string {
	if obj == "lost" {
		return "rank-s"
	}
	return "s"
}
