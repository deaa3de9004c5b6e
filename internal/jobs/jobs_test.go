package jobs

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sim"
)

// syntheticRunner derives a deterministic occupancy from the job's seed —
// the queueing engine under test doesn't care how outcomes are produced.
func syntheticRunner(j Job) (Outcome, error) {
	exec := sim.Time(10+j.Seed%7) * sim.Second
	return Outcome{
		Exec:        exec,
		Loss:        sim.Time(j.ID%3) * sim.Second,
		Epochs:      3,
		Events:      uint64(100 + j.ID),
		Failures:    j.ID % 2,
		WorkLossGrp: sim.Time(j.ID%2) * sim.Second,
		WorkLossGlb: sim.Time(j.ID%2) * 4 * sim.Second,
	}, nil
}

func testSpec() Spec {
	return Spec{
		Nodes:            16,
		Count:            24,
		MeanInterarrival: 5 * sim.Second,
		Templates: []Template{
			{Label: "small", Ranks: 2, Weight: 3},
			{Label: "wide", Ranks: 8, Weight: 1},
		},
		Seed: 42,
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testSpec(), syntheticRunner)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testSpec(), syntheticRunner)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same spec+seed differ")
	}
	if a.Table().String() != b.Table().String() {
		t.Fatal("rendered tables differ across identical runs")
	}
}

func TestRunSeedChangesStream(t *testing.T) {
	a, err := Run(testSpec(), syntheticRunner)
	if err != nil {
		t.Fatal(err)
	}
	s2 := testSpec()
	s2.Seed = 43
	b, err := Run(s2, syntheticRunner)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != b.Jobs[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical arrival chains")
	}
}

func TestRunInvariants(t *testing.T) {
	res, err := Run(testSpec(), syntheticRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 24 {
		t.Fatalf("got %d jobs, want 24", len(res.Jobs))
	}
	var prevArrival, prevStart sim.Time
	for i, j := range res.Jobs {
		if j.Arrival <= prevArrival && i > 0 {
			t.Errorf("job %d: arrival %v not strictly after previous %v", i, j.Arrival, prevArrival)
		}
		if j.Start < j.Arrival {
			t.Errorf("job %d: start %v before arrival %v", i, j.Start, j.Arrival)
		}
		if j.Start < prevStart {
			t.Errorf("job %d: start %v before previous job's start %v (FIFO violated)", i, j.Start, prevStart)
		}
		if j.Wait != j.Start-j.Arrival {
			t.Errorf("job %d: wait %v ≠ start−arrival %v", i, j.Wait, j.Start-j.Arrival)
		}
		if j.End != j.Start+j.Exec+j.Loss {
			t.Errorf("job %d: end %v ≠ start+exec+loss", i, j.End)
		}
		if len(j.Nodes) != j.Ranks {
			t.Errorf("job %d: %d nodes assigned, want %d", i, len(j.Nodes), j.Ranks)
		}
		if j.Fragments < 1 {
			t.Errorf("job %d: fragments=%d", i, j.Fragments)
		}
		prevArrival, prevStart = j.Arrival, j.Start
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization %v outside (0,1]", res.Utilization)
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan %v not positive", res.Makespan)
	}
	// Departure order must be a total order (no equal End+ID pairs).
	ids := res.sortedByEnd()
	if len(ids) != len(res.Jobs) {
		t.Fatal("sortedByEnd lost jobs")
	}
}

func TestNoTwoJobsShareANode(t *testing.T) {
	res, err := Run(testSpec(), syntheticRunner)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		for k := i + 1; k < len(res.Jobs); k++ {
			a, b := res.Jobs[i], res.Jobs[k]
			if a.End <= b.Start || b.End <= a.Start {
				continue // disjoint in time
			}
			for _, na := range a.Nodes {
				for _, nb := range b.Nodes {
					if na == nb {
						t.Fatalf("jobs %d and %d overlap in time and share node %d", a.ID, b.ID, na)
					}
				}
			}
		}
	}
}

func TestGroupedPlacementIsContiguous(t *testing.T) {
	s := testSpec()
	s.Placement = Grouped{}
	res, err := Run(s, syntheticRunner)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Fragments != 1 {
			t.Errorf("job %d: grouped placement produced %d fragments", j.ID, j.Fragments)
		}
	}
}

func TestFirstFitScatters(t *testing.T) {
	// Free nodes 0,2,4: first-fit takes them scattered; grouped refuses.
	free := []bool{true, false, true, false, true, false}
	if got := (FirstFit{}).Place(free, 3); !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Errorf("FirstFit.Place = %v, want [0 2 4]", got)
	}
	if got := (Grouped{}).Place(free, 3); got != nil {
		t.Errorf("Grouped.Place on fragmented free set = %v, want nil", got)
	}
	if got := (FirstFit{}).Place(free, 4); got != nil {
		t.Errorf("FirstFit.Place(need=4) on 3 free nodes = %v, want nil", got)
	}
}

func TestGroupedBestFit(t *testing.T) {
	// Blocks: [1,2] (len 2) and [4,5,6,7] (len 4). Need 2 → smallest
	// adequate block wins; need 3 → only the big block fits.
	free := []bool{false, true, true, false, true, true, true, true}
	if got := (Grouped{}).Place(free, 2); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Grouped.Place(need=2) = %v, want [1 2]", got)
	}
	if got := (Grouped{}).Place(free, 3); !reflect.DeepEqual(got, []int{4, 5, 6}) {
		t.Errorf("Grouped.Place(need=3) = %v, want [4 5 6]", got)
	}
}

func TestFragments(t *testing.T) {
	cases := []struct {
		nodes []int
		want  int
	}{
		{nil, 0},
		{[]int{3}, 1},
		{[]int{3, 4, 5}, 1},
		{[]int{0, 2, 4}, 3},
		{[]int{0, 1, 5, 6, 9}, 3},
	}
	for _, tc := range cases {
		if got := fragments(tc.nodes); got != tc.want {
			t.Errorf("fragments(%v) = %d, want %d", tc.nodes, got, tc.want)
		}
	}
}

func TestPolicyNamed(t *testing.T) {
	for name, want := range map[string]string{
		"": "firstfit", "firstfit": "firstfit", "grouped": "grouped", "Grouped": "grouped",
	} {
		p, err := PolicyNamed(name)
		if err != nil {
			t.Fatalf("PolicyNamed(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("PolicyNamed(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := PolicyNamed("backfill"); err == nil {
		t.Error("PolicyNamed(backfill) accepted; want error")
	}
}

func TestSpecValidate(t *testing.T) {
	mod := func(f func(*Spec)) Spec { s := testSpec(); f(&s); return s }
	cases := []struct {
		name string
		s    Spec
		want string
	}{
		{"zero nodes", mod(func(s *Spec) { s.Nodes = 0 }), "nodes"},
		{"zero count", mod(func(s *Spec) { s.Count = 0 }), "count"},
		{"zero interarrival", mod(func(s *Spec) { s.MeanInterarrival = 0 }), "meanInterarrival"},
		{"no templates", mod(func(s *Spec) { s.Templates = nil }), "templates"},
		{"ranks over nodes", mod(func(s *Spec) { s.Templates[0].Ranks = 17 }), "ranks"},
		{"zero ranks", mod(func(s *Spec) { s.Templates[0].Ranks = 0 }), "ranks"},
		{"zero weight", mod(func(s *Spec) { s.Templates[0].Weight = 0 }), "weight"},
		{"bad curve", mod(func(s *Spec) { s.Arrivals = pattern.Constant{Level: -1} }), "arrivals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestRunnerErrorPropagates(t *testing.T) {
	_, err := Run(testSpec(), func(j Job) (Outcome, error) {
		if j.ID == 3 {
			return Outcome{}, fmt.Errorf("boom")
		}
		return syntheticRunner(j)
	})
	if err == nil || !strings.Contains(err.Error(), "job 3") {
		t.Errorf("runner error not propagated with job id: %v", err)
	}
	_, err = Run(testSpec(), func(j Job) (Outcome, error) { return Outcome{Exec: 0}, nil })
	if err == nil || !strings.Contains(err.Error(), "exec") {
		t.Errorf("zero-exec outcome accepted: %v", err)
	}
}

func TestBurstArrivalsClusterInWindows(t *testing.T) {
	s := testSpec()
	s.Count = 200
	s.MeanInterarrival = 2 * sim.Second
	curve := pattern.Burst{Base: 0.05, Peak: 10, Start: 10 * sim.Second,
		Duration: 5 * sim.Second, Every: 60 * sim.Second}
	s.Arrivals = curve
	res, err := Run(s, syntheticRunner)
	if err != nil {
		t.Fatal(err)
	}
	in, out := 0, 0
	for _, j := range res.Jobs {
		if curve.At(j.Arrival) == curve.Peak {
			in++
		} else {
			out++
		}
	}
	if in <= out {
		t.Errorf("burst arrivals: %d in windows vs %d outside; expected clustering", in, out)
	}
}

// sortedByEnd returns job ids ordered by (End, ID), to check the departure
// order is well-defined.
func (r *Result) sortedByEnd() []int {
	ids := make([]int, len(r.Jobs))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ja, jb := r.Jobs[ids[a]], r.Jobs[ids[b]]
		if ja.End != jb.End {
			return ja.End < jb.End
		}
		return ja.ID < jb.ID
	})
	return ids
}
