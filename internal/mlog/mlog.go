// Package mlog implements sender-based message logging for group-based
// checkpoint/restart (paper Algorithm 1).
//
// Each rank keeps one log per out-of-group destination. Logging is
// asynchronous: a send appends an entry (a memory copy, costed at CopyRate)
// and the accumulated bytes are flushed to disk right before a checkpoint,
// so "each successful checkpoint comes with a correct set of message logs".
//
// Byte offsets drive everything else:
//
//   - garbage collection: the first post-checkpoint message to a peer
//     piggybacks RR (the volume received from that peer before the
//     checkpoint); on receipt, log entries the peer had already received
//     before its own checkpoint are discarded;
//   - restart replay: the sender replays the byte range between the
//     receiver's received-volume at its checkpoint and the sender's
//     sent-volume at the sender's checkpoint; anything else is skipped.
package mlog

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Entry is one logged message: the cumulative byte offset of its first byte
// in the per-destination stream, and its size.
type Entry struct {
	Offset int64
	Bytes  int64
}

// Log is the sender-side log for one destination.
type Log struct {
	Dst       int
	Entries   []Entry // entries not yet garbage-collected, ascending offset
	Total     int64   // cumulative bytes ever logged to Dst
	TotalMsgs int     // cumulative messages ever logged to Dst
	gcOffset  int64   // entries entirely below this offset are collected
}

// GCOffset returns the current garbage-collection watermark.
func (l *Log) GCOffset() int64 { return l.gcOffset }

// append records a message of the given size and returns its entry.
func (l *Log) append(bytes int64) Entry {
	e := Entry{Offset: l.Total, Bytes: bytes}
	l.Entries = append(l.Entries, e)
	l.Total += bytes
	l.TotalMsgs++
	return e
}

// gc discards entries that end at or below offset upto. It returns the
// number of bytes newly collected.
func (l *Log) gc(upto int64) int64 {
	if upto <= l.gcOffset {
		return 0
	}
	l.gcOffset = upto
	i := sort.Search(len(l.Entries), func(i int) bool {
		e := l.Entries[i]
		return e.Offset+e.Bytes > upto
	})
	var freed int64
	for _, e := range l.Entries[:i] {
		freed += e.Bytes
	}
	l.Entries = append([]Entry{}, l.Entries[i:]...)
	return freed
}

// ReplayPlan describes what a sender must resend to one peer on restart.
type ReplayPlan struct {
	Dst   int
	Bytes int64 // bytes to resend
	Msgs  int   // logged messages overlapping the replay range
}

// replayPlan computes the resend for the byte range (from, to]: from is the
// receiver's received-volume at its checkpoint, to is the sender's
// sent-volume at the sender's checkpoint.
func (l *Log) replayPlan(from, to int64) ReplayPlan {
	p := ReplayPlan{Dst: l.Dst}
	if to <= from {
		return p
	}
	p.Bytes = to - from
	for _, e := range l.Entries {
		if e.Offset+e.Bytes > from && e.Offset < to {
			p.Msgs++
		}
	}
	return p
}

// Set is the per-rank collection of destination logs.
type Set struct {
	Rank     int
	CopyRate float64 // bytes/second for the asynchronous log memory copy

	// BgFlushRate models the asynchronous background flusher ("logged by
	// the sender asynchronously"): logged bytes drain to disk at this
	// rate during normal execution, so the synchronous flush right
	// before a checkpoint only writes the remaining tail. Zero disables
	// background flushing (everything is written at checkpoint time).
	BgFlushRate float64

	logs      map[int]*Log
	lastLog   sim.Time
	bgFlushed int64
	total     int64 // cumulative logged bytes across destinations
	flushed   int64 // cumulative synchronously flushed bytes
}

// NewSet returns an empty log set for the given rank. copyRate models the
// sender-side overhead of asynchronous logging (a memory copy); zero
// disables the cost. bgFlushRate is the background flusher's rate; zero
// disables background flushing.
func NewSet(rank int, copyRate, bgFlushRate float64) *Set {
	return &Set{Rank: rank, CopyRate: copyRate, BgFlushRate: bgFlushRate, logs: map[int]*Log{}}
}

// Log records a message of the given size destined for dst at virtual time
// now and returns the sender-side delay of the asynchronous copy.
func (s *Set) Log(dst int, bytes int64, now sim.Time) sim.Time {
	if s.BgFlushRate > 0 && now > s.lastLog {
		drained := int64(float64(now-s.lastLog) / float64(sim.Second) * s.BgFlushRate)
		s.bgFlushed += drained
		if s.bgFlushed > s.total {
			s.bgFlushed = s.total
		}
	}
	s.lastLog = now
	l, ok := s.logs[dst]
	if !ok {
		l = &Log{Dst: dst}
		s.logs[dst] = l
	}
	l.append(bytes)
	s.total += bytes
	if s.CopyRate <= 0 {
		return 0
	}
	return sim.Time(float64(bytes) / s.CopyRate * float64(sim.Second))
}

// Get returns the log for dst, or nil if nothing was ever logged to it.
func (s *Set) Get(dst int) *Log { return s.logs[dst] }

// PendingFlush returns the unflushed bytes the pre-checkpoint log sync must
// write: everything logged minus what the background flusher (and earlier
// syncs) already made durable.
func (s *Set) PendingFlush() int64 {
	durable := s.flushed
	if s.bgFlushed > durable {
		durable = s.bgFlushed
	}
	return s.total - durable
}

// MarkFlushed marks all logged bytes durable (called after the pre-checkpoint
// flush completes).
func (s *Set) MarkFlushed() { s.flushed = s.total }

// GC applies a piggybacked volume from peer dst: entries the peer had
// received before its checkpoint are discarded. Returns bytes freed.
func (s *Set) GC(dst int, receivedVolume int64) int64 {
	l, ok := s.logs[dst]
	if !ok {
		return 0
	}
	return l.gc(receivedVolume)
}

// Replay computes the resend plan toward dst for the range (from, to].
func (s *Set) Replay(dst int, from, to int64) ReplayPlan {
	l, ok := s.logs[dst]
	if !ok {
		if to > from {
			// The volume counters say bytes are owed but nothing was
			// logged: a protocol invariant was violated.
			panic(fmt.Sprintf("mlog: rank %d owes %d bytes to %d but has no log",
				s.Rank, to-from, dst))
		}
		return ReplayPlan{Dst: dst}
	}
	return l.replayPlan(from, to)
}
