// Package tune closes the loop the paper leaves open: it *searches* the
// checkpoint-policy space (group policy × checkpoint interval × storage
// placement) for the configuration that minimizes expected makespan or
// rank-seconds lost, instead of a human reading sweep tables.
//
// The search is successive halving: a wide first rung evaluates every
// candidate on cheap cells (small scale, few reps, short horizon), the top
// 1/eta fraction is promoted to the next, fuller-resolution rung, and so on
// until one winner survives the final rung. The candidate grid is seeded
// from the analytic models in internal/ckpt — Young's interval centers the
// checkpoint-interval axis — so the budget is spent on the region the
// formulas can't see: stochastic failure clustering, patterned intensity,
// storage contention.
//
// The package deliberately does not execute simulations itself: callers
// supply a Runner that maps one Eval (a derived single-candidate scenario
// spec plus horizon) to its per-cell summaries. The gb facade backs the
// Runner with scenario.Matrix; the gbd service backs it with its shared
// worker pool and determinism cache. That inversion keeps the dependency
// arrow pointing one way (gb re-exports tune types) — the same pattern
// internal/jobs uses for the harness.
//
// Determinism: candidate enumeration, rung scheduling, memoization
// accounting, and tie-breaking depend only on the spec — never on
// completion order or worker count — so the recommendation report is
// byte-identical at any parallelism, and a tune spec plus its seed IS the
// experiment.
package tune

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Storage is one checkpoint-placement configuration in the search grid.
type Storage struct {
	// RemoteServers stores images on that many shared servers; 0 = local
	// disk.
	RemoteServers int `json:"remoteServers"`
	// RemoteAsync selects NFS-style write-behind on the servers.
	RemoteAsync bool `json:"remoteAsync,omitempty"`
}

// Label renders the configuration for reports: "local", "remote(2)",
// "remote(2,async)".
func (s Storage) Label() string {
	if s.RemoteServers == 0 {
		return "local"
	}
	if s.RemoteAsync {
		return fmt.Sprintf("remote(%d,async)", s.RemoteServers)
	}
	return fmt.Sprintf("remote(%d)", s.RemoteServers)
}

// Rung is one resolution level of the successive-halving ladder. Early
// rungs are cheap (small scale, one rep, short horizon); the final rung is
// the resolution the recommendation is quoted at.
type Rung struct {
	// Scale is the rank count (node count for cluster specs) cells run at.
	Scale int `json:"scale"`
	// Reps is the repetitions per candidate (default 1); scores average
	// over reps.
	Reps int `json:"reps,omitempty"`
	// HorizonS caps each cell's virtual time in seconds; 0 = unbounded. A
	// candidate that trips the horizon is infeasible at this rung and is
	// eliminated, not an error.
	HorizonS float64 `json:"horizonS,omitempty"`
}

// Spec declares one tuning problem: a base scenario (cluster, workload,
// failure process — everything the search holds fixed) plus the policy
// grid to search and the rung ladder to spend the budget on.
type Spec struct {
	// Base is the scenario everything derives from. Its Scales, Modes,
	// Reps, checkpoint interval, GroupMax, and storage fields serve as the
	// baseline policy; the search overrides them per candidate and rung.
	Base *scenario.Spec `json:"scenario"`

	// Objective selects what to minimize: "makespan" (default; cell
	// execution time plus per-rank repair time, seconds) or "lost"
	// (rank-seconds of work lost to failures; requires a failure process).
	Objective string `json:"objective,omitempty"`

	// Modes is the group-policy axis (default: the base scenario's modes).
	Modes []string `json:"modes,omitempty"`
	// GroupMax is the GP group-size-bound axis (default: the base
	// scenario's groupMax). Only mode "GP" varies along it; other modes
	// pin groupMax to 0 so equivalent candidates deduplicate.
	GroupMax []int `json:"groupMax,omitempty"`
	// IntervalsS is the checkpoint-interval axis, seconds; 0 means no
	// periodic checkpoints. Empty seeds a geometric grid of IntervalCount
	// points centered on Young's interval √(2·C·MTBF) (requires a failure
	// process), with the base scenario's interval included.
	IntervalsS []float64 `json:"intervalsS,omitempty"`
	// IntervalCount sizes the seeded interval grid (default 5).
	IntervalCount int `json:"intervalCount,omitempty"`
	// Storage is the placement axis (default: the base scenario's storage).
	Storage []Storage `json:"storage,omitempty"`

	// Rungs is the successive-halving ladder, cheapest first (at least
	// one). The final rung is the recommendation's resolution.
	Rungs []Rung `json:"rungs"`
	// Eta is the halving fraction: each rung promotes ⌈n/eta⌉ candidates
	// (default 3).
	Eta int `json:"eta,omitempty"`
	// Seed overrides the base scenario's seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
}

// Candidate is one point of the policy grid.
type Candidate struct {
	Mode      string  `json:"mode"`
	GroupMax  int     `json:"groupMax"`
	IntervalS float64 `json:"intervalS"`
	Storage   Storage `json:"storage"`
}

// Label renders the candidate for reports, e.g. "GP g8 t2.5 local".
func (c Candidate) Label() string {
	parts := []string{c.Mode}
	if c.Mode == string(harness.GP) {
		parts = append(parts, "g"+strconv.Itoa(c.GroupMax))
	}
	parts = append(parts, "t"+fnum(c.IntervalS), c.Storage.Label())
	return strings.Join(parts, " ")
}

// fnum renders a float compactly and exactly (shortest round-tripping form).
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// badSpec builds a tune spec error carrying the harness.ErrBadSpec sentinel,
// so the gb facade and the gbd status mapping classify it without string
// matching.
func badSpec(format string, args ...any) error {
	return fmt.Errorf("tune: %w: %s", harness.ErrBadSpec, fmt.Sprintf(format, args...))
}

// Normalize fills the documented defaults in place — including the
// Young-seeded checkpoint-interval grid, which needs the base scenario's
// cluster, workload, and failure process. Callers that must not mutate the
// spec go through Search, which works on a deep copy. Idempotent.
func (ts *Spec) Normalize() error {
	if ts.Base == nil {
		return badSpec("missing scenario block (the base spec the search derives candidates from)")
	}
	ts.Base.Normalize()
	if ts.Objective == "" {
		ts.Objective = "makespan"
	}
	if len(ts.Modes) == 0 {
		ts.Modes = append([]string(nil), ts.Base.Modes...)
	}
	if len(ts.GroupMax) == 0 {
		ts.GroupMax = []int{ts.Base.GroupMax}
	}
	if len(ts.Storage) == 0 {
		ts.Storage = []Storage{{RemoteServers: ts.Base.RemoteServers, RemoteAsync: ts.Base.RemoteAsync}}
	}
	if ts.IntervalCount == 0 {
		ts.IntervalCount = 5
	}
	if ts.Eta == 0 {
		ts.Eta = 3
	}
	for i := range ts.Rungs {
		if ts.Rungs[i].Reps == 0 {
			ts.Rungs[i].Reps = 1
		}
	}
	if len(ts.IntervalsS) == 0 {
		grid, err := ts.seedIntervals()
		if err != nil {
			return err
		}
		ts.IntervalsS = grid
	}
	return nil
}

// maxIntervalCount bounds the seeded interval grid: 64 points of ratio 2
// already span 2^63.
const maxIntervalCount = 64

// seedIntervals builds the default checkpoint-interval axis: IntervalCount
// geometric points (ratio 2) centered on Young's interval for the final
// rung's scale, rounded to three significant digits, with the base
// scenario's own interval always included. Requires a failure process —
// without an MTBF there is no analytic center.
func (ts *Spec) seedIntervals() ([]float64, error) {
	if ts.Base.Failures == nil {
		return nil, badSpec("intervalsS is empty and the scenario has no failure process to seed Young's interval from; list intervalsS explicitly")
	}
	if len(ts.Rungs) == 0 {
		return nil, badSpec("rungs must list at least one rung")
	}
	if ts.IntervalCount < 1 || ts.IntervalCount > maxIntervalCount {
		return nil, badSpec("intervalCount %d, need 1..%d", ts.IntervalCount, maxIntervalCount)
	}
	young, _, err := ts.analyticSeed()
	if err != nil {
		return nil, err
	}
	center := young
	if center <= 0 {
		center = ts.Base.Checkpoint.IntervalS
	}
	if center <= 0 {
		center = ts.Base.Failures.MTBFS / 2
	}
	if center <= 0 {
		center = 10
	}
	grid := make([]float64, 0, ts.IntervalCount+1)
	for i := 0; i < ts.IntervalCount; i++ {
		e := float64(i) - float64(ts.IntervalCount-1)/2
		grid = append(grid, roundSig(center*math.Pow(2, e), 3))
	}
	if base := ts.Base.Checkpoint.IntervalS; base > 0 {
		found := false
		for _, v := range grid {
			if v == base {
				found = true
				break
			}
		}
		if !found {
			grid = append(grid, base)
		}
	}
	sort.Float64s(grid)
	return grid, nil
}

// analyticSeed computes the Young's-formula center for the final rung:
// the interval √(2·C·MTBF) and the waste fraction √(2·C/MTBF) at it, where
// C is one checkpoint's write cost under the first storage configuration.
func (ts *Spec) analyticSeed() (youngS, wasteFrac float64, err error) {
	base := ts.Base
	if base.Failures == nil || base.Failures.MTBFS <= 0 {
		return 0, 0, nil
	}
	cfg, err := base.Cluster.Config()
	if err != nil {
		return 0, 0, badSpec("cluster: %v", err)
	}
	scale := ts.Rungs[len(ts.Rungs)-1].Scale
	// Probe-validate the workload at the final scale before Build, which
	// panics on unknown kinds.
	probe := base.Clone()
	probe.Scales = []int{scale}
	probe.Checkpoint = scenario.CheckpointSpec{}
	if err := probe.Validate(); err != nil {
		return 0, 0, badSpec("%v", err)
	}
	var wl workload.Workload
	if base.Jobs != nil {
		tp := base.Jobs.Templates[0]
		wl = tp.Build(tp.Ranks)
	} else {
		wl = base.Workload.Build(scale)
	}
	image := wl.ImageBytes(0) + workload.RuntimeOverheadBytes

	// Effective per-rank write rate: local disk, or the rank's share of the
	// remote servers' bottleneck (Fast-Ethernet NIC vs. server disk, the
	// paper's Section 5.3 defaults), capped by the rank's own NIC.
	rate := cfg.DiskWrite
	if st := ts.Storage[0]; st.RemoteServers > 0 {
		perServer := math.Min(12.5e6, 40e6)
		rate = math.Min(cfg.NICRate, perServer*float64(st.RemoteServers)/float64(scale))
	}
	if rate <= 0 {
		return 0, 0, nil
	}
	cost := sim.Time(float64(image) / rate * float64(sim.Second))
	mtbf := sim.Seconds(base.Failures.MTBFS)
	return ckpt.YoungInterval(cost, mtbf).Seconds(), ckpt.WasteAtYoung(cost, mtbf), nil
}

// roundSig rounds v to the given number of significant digits.
func roundSig(v float64, digits int) float64 {
	if v == 0 {
		return 0
	}
	mag := math.Pow(10, float64(digits)-math.Ceil(math.Log10(math.Abs(v))))
	return math.Round(v*mag) / mag
}

// Validate checks the spec after Normalize. Beyond the tune-level fields it
// validates every candidate × rung derived scenario up front, so a search
// never fails mid-ladder on a spec bug (VCL with failures, an hpl scale not
// divisible by 8, ...) the author could have been told about immediately.
func (ts *Spec) Validate() error {
	switch ts.Objective {
	case "makespan":
	case "lost":
		if ts.Base.Failures == nil {
			return badSpec("objective \"lost\" needs a failure process (nothing is lost without failures)")
		}
	default:
		return badSpec("unknown objective %q (have makespan, lost)", ts.Objective)
	}
	if len(ts.Rungs) == 0 {
		return badSpec("rungs must list at least one rung")
	}
	for i, r := range ts.Rungs {
		if r.Scale < 1 {
			return badSpec("rung %d: scale %d, need ≥ 1", i, r.Scale)
		}
		if r.Reps < 1 {
			return badSpec("rung %d: reps %d, need ≥ 1", i, r.Reps)
		}
		if r.HorizonS < 0 {
			return badSpec("rung %d: horizonS %g negative", i, r.HorizonS)
		}
	}
	if ts.Eta < 2 {
		return badSpec("eta %d, need ≥ 2 (the promotion fraction)", ts.Eta)
	}
	if err := noDup("modes", ts.Modes); err != nil {
		return err
	}
	if err := noDup("groupMax", ts.GroupMax); err != nil {
		return err
	}
	if err := noDup("intervalsS", ts.IntervalsS); err != nil {
		return err
	}
	if err := noDup("storage", ts.Storage); err != nil {
		return err
	}
	for i, t := range ts.IntervalsS {
		if t < 0 {
			return badSpec("intervalsS[%d] %g negative (0 means no periodic checkpoints)", i, t)
		}
	}
	for i, g := range ts.GroupMax {
		if g < 0 {
			return badSpec("groupMax[%d] %d negative", i, g)
		}
	}
	for i, st := range ts.Storage {
		if st.RemoteServers < 0 {
			return badSpec("storage[%d] remoteServers %d negative", i, st.RemoteServers)
		}
	}
	cands := ts.Candidates()
	if len(cands) == 0 {
		return badSpec("empty candidate grid")
	}
	for _, c := range cands {
		for i, r := range ts.Rungs {
			sp := ts.buildSpec(c, r)
			if err := sp.Validate(); err != nil {
				return badSpec("candidate %s at rung %d: %v", c.Label(), i, err)
			}
		}
	}
	return nil
}

// noDup rejects repeated values on a grid axis: a duplicate would double
// the budget spent on one policy and silently skew the halving fractions.
func noDup[T comparable](axis string, vs []T) error {
	seen := make(map[T]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return badSpec("%s lists %v twice", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// Candidates enumerates the policy grid in deterministic row-major order:
// modes × groupMax × intervals × storage. Modes other than GP pin groupMax
// to 0 (the knob only bounds GP's trace-derived formation), so the grid
// never evaluates the same effective policy twice.
func (ts *Spec) Candidates() []Candidate {
	var out []Candidate
	for _, m := range ts.Modes {
		gms := ts.GroupMax
		if m != string(harness.GP) {
			gms = []int{0}
		}
		for _, g := range gms {
			for _, t := range ts.IntervalsS {
				for _, st := range ts.Storage {
					out = append(out, Candidate{Mode: m, GroupMax: g, IntervalS: t, Storage: st})
				}
			}
		}
	}
	return out
}

// buildSpec derives the single-candidate scenario a (candidate, rung) pair
// evaluates: the base spec with exactly one scale, one mode, the
// candidate's policy knobs, and the rung's reps. Periodic checkpointing
// owns the schedule — one-shot (atS) and offset/cap fields are cleared so
// the interval axis means "checkpoint every t for the whole run".
func (ts *Spec) buildSpec(c Candidate, r Rung) *scenario.Spec {
	sp := ts.Base.Clone()
	sp.Scales = []int{r.Scale}
	sp.Modes = []string{c.Mode}
	sp.Reps = r.Reps
	sp.GroupMax = c.GroupMax
	sp.RemoteServers = c.Storage.RemoteServers
	sp.RemoteAsync = c.Storage.RemoteAsync
	sp.Checkpoint = scenario.CheckpointSpec{IntervalS: c.IntervalS}
	if ts.Seed != 0 {
		sp.Seed = ts.Seed
	}
	return sp
}

// baseline returns the base scenario's own policy as a candidate — the
// human default the search must beat to matter. ok is false when the base
// policy cannot run under the tune spec (e.g. a VCL default with failures
// armed).
func (ts *Spec) baseline() (Candidate, bool) {
	c := Candidate{
		Mode:      ts.Base.Modes[0],
		IntervalS: ts.Base.Checkpoint.IntervalS,
		Storage:   Storage{RemoteServers: ts.Base.RemoteServers, RemoteAsync: ts.Base.RemoteAsync},
	}
	if c.Mode == string(harness.GP) {
		c.GroupMax = ts.Base.GroupMax
	}
	final := ts.Rungs[len(ts.Rungs)-1]
	if err := ts.buildSpec(c, final).Validate(); err != nil {
		return Candidate{}, false
	}
	return c, true
}

// PlannedCells returns an upper bound on the simulation cells a Search of
// this (normalized, validated) spec may run, memoization aside: the halving
// ladder plus the baseline evaluation and the sensitivity sweep at the
// final rung. The count saturates at math.MaxInt instead of overflowing, so
// services can reject oversized searches up front whatever the rung reps:
// it is summed in float64, exact for any plan small enough to accept.
func (ts *Spec) PlannedCells() int {
	n := len(ts.Candidates())
	total := 0.0
	for _, r := range ts.Rungs {
		total += float64(n) * float64(r.Reps)
		n = survivorCount(n, ts.Eta)
	}
	final := float64(ts.Rungs[len(ts.Rungs)-1].Reps)
	total += final // baseline
	for _, dim := range []int{len(ts.Modes), len(ts.GroupMax), len(ts.IntervalsS), len(ts.Storage)} {
		if dim > 1 {
			total += float64(dim) * final
		}
	}
	if total >= math.MaxInt {
		return math.MaxInt
	}
	return int(total)
}

// survivorCount is the halving rule: ⌈n/eta⌉, never below 1.
func survivorCount(n, eta int) int {
	k := (n + eta - 1) / eta
	if k < 1 {
		k = 1
	}
	return k
}
