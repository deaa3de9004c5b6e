package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Window is a half-open interval of virtual time, used to mark checkpoint
// durations on timelines and in gap analysis.
type Window struct {
	From, To sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool { return t >= w.From && t < w.To }

// Timeline renders an ASCII trace diagram in the style of the paper's
// Figure 2: one lane per rank, time left to right, '*' where the rank
// received application messages in a bucket, '.' where it was silent, and
// '#'/'_' for active/idle buckets inside checkpoint windows.
//
// Only records for ranks in the ranks slice are drawn; the span [t0, t1) is
// divided into width buckets.
func Timeline(records []Record, ranks []int, t0, t1 sim.Time, width int, ckpts []Window) string {
	if width <= 0 || t1 <= t0 {
		return ""
	}
	span := float64(t1 - t0)
	bucketOf := func(t sim.Time) int {
		b := int(float64(t-t0) / span * float64(width))
		if b < 0 {
			return 0
		}
		if b >= width {
			return width - 1
		}
		return b
	}
	active := map[int][]bool{}
	for _, r := range ranks {
		active[r] = make([]bool, width)
	}
	for _, rec := range records {
		if !rec.Deliver || rec.T < t0 || rec.T >= t1 {
			continue
		}
		if lane, ok := active[rec.Dst]; ok {
			lane[bucketOf(rec.T)] = true
		}
	}
	inCkpt := make([]bool, width)
	for b := 0; b < width; b++ {
		mid := t0 + sim.Time((float64(b)+0.5)/float64(width)*span)
		for _, w := range ckpts {
			if w.Contains(mid) {
				inCkpt[b] = true
				break
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "time %8.1fs %*s %8.1fs\n", t0.Seconds(), width-8, "", t1.Seconds())
	for _, r := range ranks {
		fmt.Fprintf(&sb, "P%-4d ", r)
		for b := 0; b < width; b++ {
			switch {
			case inCkpt[b] && active[r][b]:
				sb.WriteByte('#') // progress during a checkpoint
			case inCkpt[b]:
				sb.WriteByte('_') // checkpoint "gap": no progress
			case active[r][b]:
				sb.WriteByte('*')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// GapFraction measures, over the union of the given checkpoint windows, the
// fraction of time buckets in which no application message was delivered to
// any of the given ranks. A fraction near 0 means the application progressed
// through the checkpoint (the paper's 32-process case); near 1 means the
// "non-blocking" checkpoint was effectively blocking (the 128-process case).
func GapFraction(records []Record, ranks []int, ckpts []Window, bucket sim.Time) float64 {
	if bucket <= 0 || len(ckpts) == 0 {
		return 0
	}
	rankSet := map[int]bool{}
	for _, r := range ranks {
		rankSet[r] = true
	}
	var times []sim.Time
	for _, rec := range records {
		if rec.Deliver && rankSet[rec.Dst] {
			times = append(times, rec.T)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	anyIn := func(from, to sim.Time) bool {
		i := sort.Search(len(times), func(i int) bool { return times[i] >= from })
		return i < len(times) && times[i] < to
	}
	total, silent := 0, 0
	for _, w := range ckpts {
		for t := w.From; t < w.To; t += bucket {
			end := t + bucket
			if end > w.To {
				end = w.To
			}
			total++
			if !anyIn(t, end) {
				silent++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(silent) / float64(total)
}
