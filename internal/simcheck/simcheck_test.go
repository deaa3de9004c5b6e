package simcheck

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/mlog"
	"repro/internal/mpi"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestGeneratedSpecsAlwaysValid: the generator's contract is that every
// seed yields a spec the scenario validator accepts (Generate panics
// otherwise). Sweep a few hundred seeds at both quick and 16384-rank
// bounds; validation is cheap — nothing is simulated here.
func TestGeneratedSpecsAlwaysValid(t *testing.T) {
	for _, cfg := range []GenConfig{{}, {MaxRanks: 16384}} {
		for seed := int64(1); seed <= 300; seed++ {
			s := Generate(seed, cfg)
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d (maxRanks %d): %v", seed, cfg.MaxRanks, err)
			}
			for _, n := range s.Scales {
				if n > cfg.maxRanks() {
					t.Fatalf("seed %d: scale %d exceeds bound %d", seed, n, cfg.maxRanks())
				}
			}
		}
	}
}

// TestGenerateDeterministic: identical seeds must yield byte-identical
// specs — the printed reproducing seed IS the scenario.
func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(42, GenConfig{}).Marshal()
	b, _ := Generate(42, GenConfig{}).Marshal()
	if string(a) != string(b) {
		t.Fatalf("seed 42 generated two different specs:\n%s\nvs\n%s", a, b)
	}
}

// TestOracleCleanSweep: a healthy simulator passes the full oracle on a
// spread of generated scenarios, including failure-armed and multi-mode
// ones.
func TestOracleCleanSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		spec := Generate(seed, GenConfig{MaxRanks: 32})
		rep := Check(context.Background(), spec, CheckConfig{Workers: 2})
		if !rep.Ok() {
			t.Errorf("seed %d (%s): %d violations:\n%s",
				seed, spec.Name, len(rep.Violations), strings.Join(rep.Violations, "\n"))
		}
		if rep.Cells == 0 {
			t.Errorf("seed %d: oracle observed no cells", seed)
		}
	}
}

// mustViolate asserts that checkCell flags the doctored result with a
// violation containing want.
func mustViolate(t *testing.T, res *harness.Result, want string) {
	t.Helper()
	v := checkCell(scenario.Cell{Scale: 2, Mode: "GP1", Seed: 7}, res)
	for _, s := range v {
		if strings.Contains(s, want) {
			return
		}
	}
	t.Errorf("violations %q do not mention %q", v, want)
}

// cleanResult is a minimal result that passes every per-cell check.
func cleanResult() *harness.Result {
	return &harness.Result{
		Formation: group.Singletons(2),
		MsgStats:  mpi.Stats{Sends: 4, Delivered: 4, Consumed: 4, PoolCreated: 2, PoolFreed: 3, PoolReused: 2, FreeLen: 1},
		Flows:     []mpi.PairFlow{{Src: 0, Dst: 1, Sent: 100, Recvd: 100, Consumed: 100}},
	}
}

// TestCheckCellDetectsDoctoredResults drives the per-cell checker with
// hand-corrupted results, one invariant at a time — the oracle's own unit
// oracle, independent of whether a live mutation happens to excite the
// invariant.
func TestCheckCellDetectsDoctoredResults(t *testing.T) {
	if v := checkCell(scenario.Cell{}, cleanResult()); len(v) != 0 {
		t.Fatalf("clean result flagged: %q", v)
	}

	res := cleanResult()
	res.MsgStats.Delivered = 3
	mustViolate(t, res, "sends but 3 deliveries")

	res = cleanResult()
	res.MsgStats.Consumed = 5
	mustViolate(t, res, "receives consumed")

	res = cleanResult()
	res.QueuedApp = 2
	mustViolate(t, res, "left queued")

	res = cleanResult()
	res.Flows[0].Recvd = 90
	mustViolate(t, res, "flow 0→1")

	res = cleanResult()
	res.MsgStats.DoubleFrees = 1
	mustViolate(t, res, "double-freed")

	res = cleanResult()
	res.MsgStats.FreeLen = 5
	mustViolate(t, res, "free list")

	// Cut inconsistency: rank 1 received 80 bytes from rank 0 at its cut,
	// but rank 0's cut had only 60 sent — an orphan crossed the cut.
	res = cleanResult()
	res.Cuts = []core.Cut{
		{Rank: 0, Epoch: 1, InGroupSent: map[int]int64{1: 60}, InGroupRecvd: map[int]int64{1: 0}},
		{Rank: 1, Epoch: 1, InGroupSent: map[int]int64{0: 0}, InGroupRecvd: map[int]int64{0: 80}},
	}
	mustViolate(t, res, "crossing the cut")

	// A member that drained a peer which recorded no cut at that epoch.
	res = cleanResult()
	res.Cuts = []core.Cut{
		{Rank: 1, Epoch: 2, InGroupSent: map[int]int64{0: 0}, InGroupRecvd: map[int]int64{0: 0}},
	}
	mustViolate(t, res, "recorded no cut")

	// Group restart losing more than global contradicts the paper's core
	// inequality.
	res = cleanResult()
	res.Failures = []failure.Outcome{{
		FailedNode: 0, FailedRanks: []int{0},
		WorkLossGrp: 5 * sim.Second, WorkLossGlb: 2 * sim.Second,
	}}
	mustViolate(t, res, "more than global restart")

	res = cleanResult()
	res.Failures = []failure.Outcome{{FailedNode: 0, FailedRanks: []int{0, 1}}}
	mustViolate(t, res, "formation group")

	// Inter-group traffic with no sender log, and over-aggressive GC.
	res = cleanResult()
	res.Logs = []*mlog.Set{mlog.NewSet(0, 0, 0), mlog.NewSet(1, 0, 0)}
	mustViolate(t, res, "no sender log")

	// Receiver consumed only 40 of the 100 logged bytes; GC to 100 threw
	// away replay evidence.
	res = cleanResult()
	res.Logs = []*mlog.Set{mlog.NewSet(0, 0, 0), mlog.NewSet(1, 0, 0)}
	res.Logs[0].Log(1, 100, 0)
	res.Logs[0].GC(1, 100)
	res.Flows[0] = mpi.PairFlow{Src: 0, Dst: 1, Sent: 100, Recvd: 100, Consumed: 40}
	mustViolate(t, res, "GC watermark")
}

// cleanJobsResult is a minimal cluster-cell result that passes every
// job-stream check: two 2-rank jobs on a 4-node cluster, back to back in
// arrival order, disjoint contiguous node blocks.
func cleanJobsResult() *harness.Result {
	return &harness.Result{Jobs: &jobs.Result{
		Spec:      jobs.Spec{Nodes: 4, Count: 2},
		Placement: "grouped",
		Jobs: []jobs.JobReport{
			{
				Job:       jobs.Job{ID: 0, Ranks: 2, Arrival: 1 * sim.Second},
				Outcome:   jobs.Outcome{Exec: 2 * sim.Second},
				Start:     1 * sim.Second,
				End:       3 * sim.Second,
				Nodes:     []int{0, 1},
				Fragments: 1,
			},
			{
				Job:       jobs.Job{ID: 1, Ranks: 2, Arrival: 2 * sim.Second},
				Outcome:   jobs.Outcome{Exec: 1 * sim.Second},
				Start:     2 * sim.Second,
				End:       3 * sim.Second,
				Nodes:     []int{2, 3},
				Fragments: 1,
			},
		},
		Makespan:    3 * sim.Second,
		Utilization: 0.5, // (2·2s + 2·1s) / (4 nodes · 3s)
	}}
}

// TestCheckJobsDetectsDoctoredResults drives the cluster-cell checker with
// hand-corrupted job streams, one invariant at a time.
func TestCheckJobsDetectsDoctoredResults(t *testing.T) {
	cell := scenario.Cell{Scale: 4, Mode: "GP1", Seed: 7}
	if v := checkCell(cell, cleanJobsResult()); len(v) != 0 {
		t.Fatalf("clean jobs result flagged: %q", v)
	}
	mustViolateJobs := func(want string, corrupt func(*jobs.Result)) {
		t.Helper()
		res := cleanJobsResult()
		corrupt(res.Jobs)
		v := checkCell(cell, res)
		for _, s := range v {
			if strings.Contains(s, want) {
				return
			}
		}
		t.Errorf("violations %q do not mention %q", v, want)
	}

	mustViolateJobs("3-job stream", func(r *jobs.Result) { r.Spec.Count = 3 })
	mustViolateJobs("not after job", func(r *jobs.Result) { r.Jobs[1].Arrival = 500 * sim.Millisecond })
	mustViolateJobs("before its arrival", func(r *jobs.Result) { r.Jobs[1].Arrival = 2500 * sim.Millisecond })
	mustViolateJobs("FIFO predecessor", func(r *jobs.Result) {
		r.Jobs[1].Start = 500 * sim.Millisecond
		r.Jobs[1].Arrival = 500 * sim.Millisecond
	})
	mustViolateJobs("wait", func(r *jobs.Result) { r.Jobs[0].Wait = sim.Second })
	mustViolateJobs("end", func(r *jobs.Result) { r.Jobs[0].End = 10 * sim.Second })
	mustViolateJobs("negative accounting", func(r *jobs.Result) { r.Jobs[0].Exec = 0; r.Jobs[0].End = sim.Second })
	mustViolateJobs("more than global restart", func(r *jobs.Result) {
		r.Jobs[0].WorkLossGrp = 2 * sim.Second
		r.Jobs[0].WorkLossGlb = 1 * sim.Second
	})
	mustViolateJobs("nodes assigned", func(r *jobs.Result) { r.Jobs[0].Nodes = []int{0} })
	mustViolateJobs("outside the 4-node cluster", func(r *jobs.Result) { r.Jobs[1].Nodes = []int{2, 9} })
	mustViolateJobs("contiguous runs", func(r *jobs.Result) { r.Jobs[1].Fragments = 2 })
	mustViolateJobs("grouped placement yielded", func(r *jobs.Result) {
		// Job 1 lands on a fragmented pair; its report is internally
		// consistent, so only the placement contract is violated.
		r.Jobs[0].Nodes = []int{0, 2}
		r.Jobs[0].Fragments = 2
		r.Jobs[1].Nodes = []int{1, 3}
		r.Jobs[1].Fragments = 2
	})
	mustViolateJobs("share nodes", func(r *jobs.Result) { r.Jobs[1].Nodes = []int{1, 2} })
	mustViolateJobs("makespan", func(r *jobs.Result) { r.Makespan = 5 * sim.Second })
	mustViolateJobs("max wait", func(r *jobs.Result) { r.MaxWait = sim.Second })
	mustViolateJobs("per-job sums", func(r *jobs.Result) { r.Failures = 3 })
	mustViolateJobs("utilization", func(r *jobs.Result) { r.Utilization = 1.5 })
}

// TestOracleLivenessHorizon: a spec whose cells cannot finish inside the
// horizon must come back as a liveness violation, not an infinite sim.
func TestOracleLivenessHorizon(t *testing.T) {
	spec := Generate(1, GenConfig{MaxRanks: 16})
	rep := Check(context.Background(), spec, CheckConfig{Workers: 2, HorizonS: 1e-9, SkipDeterminism: true})
	if rep.Ok() {
		t.Fatal("a 1ns horizon did not produce a liveness violation")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "liveness") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %q lack a liveness entry", rep.Violations)
	}
}
