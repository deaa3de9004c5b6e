// Package group implements process-group formation for group-based
// checkpoint/restart.
//
// FromPairs is the paper's Algorithm 2: aggregated trace pair volumes are
// consumed in descending (size, count) order and greedily merged into groups
// subject to a maximum group size G (default ⌈√n⌉). The package also
// provides the fixed formations used as baselines in the paper's evaluation
// (NORM: one global group; GP1: singletons; GPk: k contiguous-rank groups)
// and a group-definition file format.
package group

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// Formation is a disjoint partition of ranks 0..N-1 into groups.
type Formation struct {
	N      int
	Groups [][]int // each sorted ascending; groups ordered by smallest member
	of     []int   // rank → group index
}

// normalize sorts members and group order and rebuilds the rank index.
func normalize(n int, groups [][]int) Formation {
	for _, g := range groups {
		sort.Ints(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	f := Formation{N: n, Groups: groups, of: make([]int, n)}
	for i := range f.of {
		f.of[i] = -1
	}
	for gi, g := range groups {
		for _, r := range g {
			if r >= 0 && r < n {
				f.of[r] = gi
			}
		}
	}
	return f
}

// GroupOf returns the index of the group containing rank r.
func (f *Formation) GroupOf(r int) int { return f.of[r] }

// Members returns the group containing rank r.
func (f *Formation) Members(r int) []int { return f.Groups[f.of[r]] }

// SameGroup reports whether two ranks checkpoint together.
func (f *Formation) SameGroup(a, b int) bool { return f.of[a] == f.of[b] }

// MaxGroupSize returns the size of the largest group.
func (f *Formation) MaxGroupSize() int {
	max := 0
	for _, g := range f.Groups {
		if len(g) > max {
			max = len(g)
		}
	}
	return max
}

// Sizes returns the sorted group sizes of a formation (diagnostics).
func (f *Formation) Sizes() []int {
	sizes := make([]int, len(f.Groups))
	for i, g := range f.Groups {
		sizes[i] = len(g)
	}
	sort.Ints(sizes)
	return sizes
}

// Validate checks that the formation is a disjoint cover of 0..N-1.
func (f *Formation) Validate() error {
	seen := make([]bool, f.N)
	for _, g := range f.Groups {
		for _, r := range g {
			if r < 0 || r >= f.N {
				return fmt.Errorf("group: rank %d out of range [0,%d)", r, f.N)
			}
			if seen[r] {
				return fmt.Errorf("group: rank %d appears in two groups", r)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("group: rank %d not covered", r)
		}
	}
	return nil
}

// String renders the formation in the group-definition file format.
func (f *Formation) String() string {
	s := ""
	for _, g := range f.Groups {
		for i, r := range g {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprint(r)
		}
		s += "\n"
	}
	return s
}

// DefaultMaxSize returns the paper's default upper bound on group size:
// the square root of the number of processes, rounded up.
func DefaultMaxSize(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

// Global returns the single-group formation (the paper's NORM baseline:
// LAM/MPI global coordinated checkpointing).
func Global(n int) Formation {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return normalize(n, [][]int{g})
}

// Singletons returns the one-process-per-group formation (the paper's GP1:
// uncoordinated checkpointing with full message logging).
func Singletons(n int) Formation {
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	return normalize(n, groups)
}

// Fixed returns k groups of sequential ranks as equal as possible (the
// paper's GP4 ad-hoc formation with k=4).
func Fixed(n, k int) Formation {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	var groups [][]int
	base, rem := n/k, n%k
	r := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		var g []int
		for j := 0; j < size; j++ {
			g = append(g, r)
			r++
		}
		groups = append(groups, g)
	}
	return normalize(n, groups)
}

// tuple is Algorithm 2's L/M element: a set of processes with the total
// count and byte volume of the messages that justified grouping them.
type tuple struct {
	procs []int // kept sorted
	count int
	bytes int64
}

func (t *tuple) has(p int) bool {
	i := sort.SearchInts(t.procs, p)
	return i < len(t.procs) && t.procs[i] == p
}

func (t *tuple) union(other *tuple) {
	merged := append([]int{}, t.procs...)
	for _, p := range other.procs {
		if !t.has(p) {
			merged = append(merged, p)
		}
	}
	sort.Ints(merged)
	t.procs = merged
	t.count += other.count
	t.bytes += other.bytes
}

// FromPairs runs the paper's Algorithm 2 on aggregated pair volumes.
// pairs must already be sorted descending by (bytes, count) — the order
// trace.Aggregate produces. maxSize ≤ 0 selects DefaultMaxSize(n).
// Processes that end up in no tuple (no traffic, or squeezed out by full
// groups) become singleton groups, so the result always covers 0..n-1.
func FromPairs(pairs []trace.PairStat, n, maxSize int) Formation {
	if maxSize <= 0 {
		maxSize = DefaultMaxSize(n)
	}
	var m []*tuple
	find := func(p int) int {
		for i, t := range m {
			if t.has(p) {
				return i
			}
		}
		return -1
	}
	for _, pr := range pairs {
		li := &tuple{procs: []int{pr.A, pr.B}, count: pr.Count, bytes: pr.Bytes}
		sort.Ints(li.procs)
		i1, i2 := find(pr.A), find(pr.B)
		switch {
		case i1 < 0 && i2 < 0:
			if len(li.procs) <= maxSize {
				m = append(m, li)
			}
		case i1 >= 0 && i2 < 0:
			if merged := unionSize(m[i1].procs, li.procs); merged <= maxSize {
				m[i1].union(li)
			}
		case i1 < 0 && i2 >= 0:
			if merged := unionSize(m[i2].procs, li.procs); merged <= maxSize {
				m[i2].union(li)
			}
		case i1 == i2:
			// Both endpoints already grouped together: fold in volume.
			m[i1].count += pr.Count
			m[i1].bytes += pr.Bytes
		default:
			if unionSize(m[i1].procs, m[i2].procs) <= maxSize {
				m[i1].union(m[i2])
				m[i1].count += pr.Count
				m[i1].bytes += pr.Bytes
				m = append(m[:i2], m[i2+1:]...)
			}
		}
	}
	covered := make([]bool, n)
	var groups [][]int
	for _, t := range m {
		groups = append(groups, t.procs)
		for _, p := range t.procs {
			if p >= 0 && p < n {
				covered[p] = true
			}
		}
	}
	for r, ok := range covered {
		if !ok {
			groups = append(groups, []int{r})
		}
	}
	return normalize(n, groups)
}

// unionSize counts the distinct processes in a ∪ b. Both are sorted, as
// tuple.procs are, so a merge walk visits the union in order and counts
// each change of value: no set is built per candidate merge.
func unionSize(a, b []int) int {
	n, last := 0, 0
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var p int
		if j == len(b) || i < len(a) && a[i] <= b[j] {
			p, i = a[i], i+1
		} else {
			p, j = b[j], j+1
		}
		if n == 0 || p != last {
			n, last = n+1, p
		}
	}
	return n
}

// FromTrace is the full pipeline: aggregate send records, then run
// Algorithm 2.
func FromTrace(records []trace.Record, n, maxSize int) Formation {
	return FromPairs(trace.Aggregate(records), n, maxSize)
}

// FromMatrix runs Algorithm 2 on a streaming communication matrix. The
// result is identical to FromTrace over the records the matrix folded in,
// without ever materializing them.
func FromMatrix(m *trace.CommMatrix, n, maxSize int) Formation {
	return FromPairs(m.Pairs(), n, maxSize)
}
