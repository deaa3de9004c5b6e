package group

import (
	"sort"

	"repro/internal/trace"
)

// Dynamic implements the related-work baseline the paper contrasts with
// (Gopalan & Nagarajan 2005): processes or groups are merged whenever one
// sends a message to the other, with no size bound. The paper's criticism —
// "all processes may eventually form a single group when there is a sequence
// of messages linking up all the processes" — is directly observable with
// this function on any connected communication graph.
func Dynamic(records []trace.Record, n int) Formation {
	u := newUnion(n)
	for _, rec := range records {
		if rec.Deliver || rec.Src == rec.Dst {
			continue
		}
		if rec.Src >= n || rec.Dst >= n || rec.Src < 0 || rec.Dst < 0 {
			continue
		}
		u.merge(rec.Src, rec.Dst)
	}
	return u.formation()
}

// DynamicFromMatrix is Dynamic consuming a streaming communication matrix:
// merge-on-message depends only on which pairs communicated, so the matrix
// carries everything the scheme needs and the result is identical to
// Dynamic over the records the matrix folded in.
func DynamicFromMatrix(m *trace.CommMatrix, n int) Formation {
	return DynamicFromPairs(m.Pairs(), n)
}

// DynamicFromPairs applies the merge-on-message scheme to aggregated pair
// volumes.
func DynamicFromPairs(pairs []trace.PairStat, n int) Formation {
	u := newUnion(n)
	for _, pr := range pairs {
		if pr.A == pr.B || pr.A < 0 || pr.B < 0 || pr.A >= n || pr.B >= n {
			continue
		}
		u.merge(pr.A, pr.B)
	}
	return u.formation()
}

// union is a union-find over ranks 0..n-1 with path halving.
type union struct{ parent []int }

func newUnion(n int) *union {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	return &union{parent: parent}
}

func (u *union) root(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *union) merge(a, b int) {
	ra, rb := u.root(a), u.root(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

// formation groups ranks by connected component.
func (u *union) formation() Formation {
	n := len(u.parent)
	byRoot := map[int][]int{}
	for r := 0; r < n; r++ {
		root := u.root(r)
		byRoot[root] = append(byRoot[root], r)
	}
	var groups [][]int
	for _, g := range byRoot {
		groups = append(groups, g)
	}
	return normalize(n, groups)
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
