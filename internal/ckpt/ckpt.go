// Package ckpt defines the bookkeeping shared by checkpoint protocols: the
// per-rank stage breakdown the paper reports in Figure 9 (Lock MPI /
// Coordination / Checkpoint / Finalize), per-checkpoint records, and the
// snapshot data a restart needs (image size, per-peer sent/received volumes,
// and flushed log state).
package ckpt

import (
	"fmt"

	"repro/internal/sim"
)

// Stage identifies a phase of a checkpoint, in execution order.
type Stage int

// The four stages of a (group-)coordinated checkpoint, matching the
// paper's Figure 9 legend.
const (
	StageLock     Stage = iota // "Lock MPI": freeze the rank
	StageCoord                 // log flush + bookmark exchange + drain
	StageWrite                 // write the checkpoint image ("Checkpoint")
	StageFinalize              // group barrier + resume
	numStages
)

var stageNames = [numStages]string{"Lock MPI", "Coordination", "Checkpoint", "Finalize"}

// String returns the paper's name for the stage.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return stageNames[s]
}

// Breakdown holds per-stage durations.
type Breakdown [numStages]sim.Time

// Add returns the element-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	var out Breakdown
	for i := range b {
		out[i] = b[i] + o[i]
	}
	return out
}

// Scale returns the breakdown divided by n (for averaging).
func (b Breakdown) Scale(n int) Breakdown {
	if n == 0 {
		return b
	}
	var out Breakdown
	for i := range b {
		out[i] = b[i] / sim.Time(n)
	}
	return out
}

// Record is one rank's participation in one checkpoint epoch.
type Record struct {
	Rank       int
	Epoch      int
	Start, End sim.Time
	Stages     Breakdown
	ImageBytes int64
	LogFlushed int64 // log bytes flushed to disk during this checkpoint
}

// Duration returns the wall time the rank spent on the checkpoint (from
// receiving the request until resuming normal execution — exactly the
// paper's per-process measurement).
func (r Record) Duration() sim.Time { return r.End - r.Start }

// Snapshot is the durable state one rank saves at one checkpoint epoch.
// Restart decisions (replay vs. skip) come from comparing SentTo/RecvdFrom
// across ranks, exactly as Algorithm 1's RX/SX exchange prescribes.
type Snapshot struct {
	Rank       int
	Epoch      int
	At         sim.Time
	ImageBytes int64
	SentTo     map[int]int64 // S_X at the checkpoint, per peer
	RecvdFrom  map[int]int64 // R_X at the checkpoint, per peer (the RR_X record)
}

// AggregateCheckpointTime sums per-rank checkpoint durations — the paper's
// "summed checkpoint time" metric (Figures 6a, 11a, 12a), the total CPU time
// the system spends checkpointing.
func AggregateCheckpointTime(records []Record) sim.Time {
	var t sim.Time
	for _, r := range records {
		t += r.Duration()
	}
	return t
}

// MeanBreakdown averages stage breakdowns across records (Figure 9).
func MeanBreakdown(records []Record) Breakdown {
	var sum Breakdown
	for _, r := range records {
		sum = sum.Add(r.Stages)
	}
	return sum.Scale(len(records))
}
