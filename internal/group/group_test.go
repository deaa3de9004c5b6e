package group

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func pair(a, b, count int, size int64) trace.PairStat {
	return trace.PairStat{A: a, B: b, Count: count, Bytes: size}
}

func TestGlobalSingletonsFixed(t *testing.T) {
	g := Global(5)
	if len(g.Groups) != 1 || len(g.Groups[0]) != 5 {
		t.Errorf("Global = %v", g.Groups)
	}
	s := Singletons(4)
	if len(s.Groups) != 4 {
		t.Errorf("Singletons = %v", s.Groups)
	}
	f := Fixed(10, 4)
	if len(f.Groups) != 4 {
		t.Fatalf("Fixed(10,4) = %v", f.Groups)
	}
	// 10 = 3+3+2+2 sequential.
	if len(f.Groups[0]) != 3 || len(f.Groups[3]) != 2 {
		t.Errorf("Fixed sizes = %v", f.Sizes())
	}
	if f.Groups[0][0] != 0 || f.Groups[0][2] != 2 {
		t.Errorf("Fixed group 0 = %v, want [0 1 2]", f.Groups[0])
	}
	for _, form := range []Formation{g, s, f} {
		if err := form.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestFixedDegenerate(t *testing.T) {
	if got := Fixed(3, 0); len(got.Groups) != 1 {
		t.Errorf("Fixed(3,0) = %v", got.Groups)
	}
	if got := Fixed(3, 9); len(got.Groups) != 3 {
		t.Errorf("Fixed(3,9) = %v", got.Groups)
	}
}

func TestDefaultMaxSize(t *testing.T) {
	cases := map[int]int{1: 1, 4: 2, 16: 4, 17: 5, 128: 12, 64: 8}
	for n, want := range cases {
		if got := DefaultMaxSize(n); got != want {
			t.Errorf("DefaultMaxSize(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFromPairsTwoCliques(t *testing.T) {
	// Heavy traffic inside {0,1,2} and {3,4,5}, light across.
	pairs := []trace.PairStat{
		pair(0, 1, 10, 1000),
		pair(1, 2, 10, 900),
		pair(3, 4, 10, 800),
		pair(4, 5, 10, 700),
		pair(2, 3, 1, 10), // light cross-clique traffic
	}
	f := FromPairs(pairs, 6, 3)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Groups) != 2 {
		t.Fatalf("groups = %v, want two cliques", f.Groups)
	}
	if !f.SameGroup(0, 2) || !f.SameGroup(3, 5) || f.SameGroup(2, 3) {
		t.Errorf("grouping = %v", f.Groups)
	}
}

func TestFromPairsRespectsMaxSize(t *testing.T) {
	// A chain 0-1-2-3-4 would collapse to one group without the bound.
	pairs := []trace.PairStat{
		pair(0, 1, 1, 500),
		pair(1, 2, 1, 400),
		pair(2, 3, 1, 300),
		pair(3, 4, 1, 200),
	}
	f := FromPairs(pairs, 5, 2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.MaxGroupSize() > 2 {
		t.Errorf("max group size = %d, want ≤ 2 (groups %v)", f.MaxGroupSize(), f.Groups)
	}
	if !f.SameGroup(0, 1) {
		t.Errorf("heaviest pair not grouped: %v", f.Groups)
	}
}

func TestFromPairsMergesExistingGroups(t *testing.T) {
	// (0,1) and (2,3) form first; then (1,2) merges them if G allows.
	pairs := []trace.PairStat{
		pair(0, 1, 1, 500),
		pair(2, 3, 1, 400),
		pair(1, 2, 1, 300),
	}
	f := FromPairs(pairs, 4, 4)
	if len(f.Groups) != 1 || f.MaxGroupSize() != 4 {
		t.Errorf("groups = %v, want one group of 4", f.Groups)
	}
	// With G=3 the cross-pair merge is refused and groups stay separate.
	f3 := FromPairs(pairs, 4, 3)
	if len(f3.Groups) != 2 {
		t.Errorf("G=3 groups = %v, want 2", f3.Groups)
	}
}

func TestFromPairsSameGroupPairFoldsVolume(t *testing.T) {
	pairs := []trace.PairStat{
		pair(0, 1, 1, 500),
		pair(0, 1, 1, 100), // duplicate pair (possible with pre-split input)
	}
	f := FromPairs(pairs, 2, 2)
	if len(f.Groups) != 1 {
		t.Errorf("groups = %v", f.Groups)
	}
}

func TestFromPairsUncommunicativeRanksBecomeSingletons(t *testing.T) {
	pairs := []trace.PairStat{pair(0, 1, 1, 100)}
	f := FromPairs(pairs, 5, 2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Groups) != 4 { // {0,1} plus three singletons
		t.Errorf("groups = %v", f.Groups)
	}
}

func TestFromPairsDefaultMaxSize(t *testing.T) {
	// 16 ranks all-to-all equal traffic: G defaults to 4.
	var pairs []trace.PairStat
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			pairs = append(pairs, pair(i, j, 1, 100))
		}
	}
	f := FromPairs(pairs, 16, 0)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.MaxGroupSize() > 4 {
		t.Errorf("max size = %d, want ≤ 4", f.MaxGroupSize())
	}
}

// Property: for arbitrary pair lists the output is always a valid disjoint
// cover respecting the size bound.
func TestFromPairsAlwaysValidProperty(t *testing.T) {
	f := func(edges []uint16, maxSizeSeed uint8) bool {
		const n = 12
		maxSize := int(maxSizeSeed)%n + 1
		var pairs []trace.PairStat
		for i, e := range edges {
			a := int(e) % n
			b := int(e>>4) % n
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, pair(a, b, i+1, int64(e)))
		}
		// Aggregate to get the sorted order FromPairs expects.
		var recs []trace.Record
		for _, p := range pairs {
			recs = append(recs, trace.Record{Src: p.A, Dst: p.B, Bytes: p.Bytes})
		}
		form := FromTrace(recs, n, maxSize)
		if err := form.Validate(); err != nil {
			return false
		}
		return form.MaxGroupSize() <= maxSize || maxSize < 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUnionSizeCountsDistinct: the merge walk over two sorted slices
// counts what a set union counts, duplicates inside either slice included.
func TestUnionSizeCountsDistinct(t *testing.T) {
	prop := func(a, b []uint8) bool {
		sorted := func(v []uint8) []int {
			out := make([]int, len(v))
			for i, x := range v {
				out[i] = int(x % 16)
			}
			sort.Ints(out)
			return out
		}
		sa, sb := sorted(a), sorted(b)
		set := map[int]bool{}
		for _, p := range append(append([]int{}, sa...), sb...) {
			set[p] = true
		}
		return unionSize(sa, sb) == len(set)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := Fixed(7, 3)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != f.String() {
		t.Errorf("round trip:\n%s\nvs\n%s", got.String(), f.String())
	}
}

func TestReadFromRejectsBadDefinitions(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("0 1\n1 2\n"), 3); err == nil {
		t.Error("overlapping groups accepted")
	}
	if _, err := ReadFrom(strings.NewReader("0 1\n"), 3); err == nil {
		t.Error("incomplete cover accepted")
	}
	if _, err := ReadFrom(strings.NewReader("0 x\n"), 2); err == nil {
		t.Error("non-numeric rank accepted")
	}
	if _, err := ReadFrom(strings.NewReader("0 5\n1\n"), 3); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestReadFromAllowsComments(t *testing.T) {
	src := "# a comment\n0 1 # trailing\n\n2\n"
	f, err := ReadFrom(strings.NewReader(src), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Groups) != 2 {
		t.Errorf("groups = %v", f.Groups)
	}
}

func TestMembersAndGroupOf(t *testing.T) {
	f := Fixed(6, 2)
	if f.GroupOf(0) != 0 || f.GroupOf(5) != 1 {
		t.Errorf("GroupOf wrong: %d %d", f.GroupOf(0), f.GroupOf(5))
	}
	m := f.Members(4)
	if len(m) != 3 || m[0] != 3 {
		t.Errorf("Members(4) = %v", m)
	}
}
