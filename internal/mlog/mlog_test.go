package mlog

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLogAppendAndPending(t *testing.T) {
	s := NewSet(0, 0, 0)
	s.Log(1, 100, 0)
	s.Log(1, 200, 0)
	s.Log(2, 50, 0)
	if got := s.PendingFlush(); got != 350 {
		t.Errorf("PendingFlush = %d, want 350", got)
	}
	s.MarkFlushed()
	if got := s.PendingFlush(); got != 0 {
		t.Errorf("PendingFlush after flush = %d", got)
	}
	s.Log(1, 10, 0)
	if got := s.PendingFlush(); got != 10 {
		t.Errorf("PendingFlush after new log = %d", got)
	}
	b := s.Get(1).Total + s.Get(2).Total
	m := s.Get(1).TotalMsgs + s.Get(2).TotalMsgs
	if b != 360 || m != 4 {
		t.Errorf("TotalLogged = %d,%d", b, m)
	}
}

func TestLogCopyCost(t *testing.T) {
	s := NewSet(0, 100e6, 0) // 100 MB/s copy
	d := s.Log(1, 50_000_000, 0)
	if d != sim.Seconds(0.5) {
		t.Errorf("copy delay = %v, want 0.5s", d)
	}
	free := NewSet(0, 0, 0)
	if d := free.Log(1, 1<<30, 0); d != 0 {
		t.Errorf("zero CopyRate delay = %v", d)
	}
}

func TestGCDiscardsWholeEntriesOnly(t *testing.T) {
	s := NewSet(0, 0, 0)
	s.Log(1, 100, 0) // offsets 0..100
	s.Log(1, 100, 0) // 100..200
	s.Log(1, 100, 0) // 200..300
	// Receiver had 150 bytes at its checkpoint: only the first entry
	// (0..100) is entirely below 150.
	if freed := s.GC(1, 150); freed != 100 {
		t.Errorf("freed = %d, want 100", freed)
	}
	l := s.Get(1)
	if len(l.Entries) != 2 || l.Entries[0].Offset != 100 {
		t.Errorf("entries = %+v", l.Entries)
	}
	// GC is monotone: a lower watermark does nothing.
	if freed := s.GC(1, 120); freed != 0 {
		t.Errorf("regressing GC freed %d", freed)
	}
	// Full GC.
	if freed := s.GC(1, 300); freed != 200 {
		t.Errorf("final GC freed %d", freed)
	}
	// Entries leave a log only through GC, so the bytes it collected are
	// the logged total less the entries the log still holds.
	collected := l.Total
	for _, e := range l.Entries {
		collected -= e.Bytes
	}
	if collected != 300 {
		t.Errorf("Collected = %d", collected)
	}
}

func TestGCUnknownPeer(t *testing.T) {
	s := NewSet(0, 0, 0)
	if freed := s.GC(42, 1000); freed != 0 {
		t.Errorf("GC on unknown peer freed %d", freed)
	}
}

func TestReplayPlanRange(t *testing.T) {
	s := NewSet(0, 0, 0)
	s.Log(1, 100, 0) // 0..100
	s.Log(1, 100, 0) // 100..200
	s.Log(1, 100, 0) // 200..300
	// Receiver saw 150 bytes, sender checkpointed at 300: resend 150.
	p := s.Replay(1, 150, 300)
	if p.Bytes != 150 {
		t.Errorf("Bytes = %d, want 150", p.Bytes)
	}
	if p.Msgs != 2 { // entry 100..200 overlaps; entry 200..300 included
		t.Errorf("Msgs = %d, want 2", p.Msgs)
	}
	// Nothing owed.
	if p := s.Replay(1, 300, 300); p.Bytes != 0 || p.Msgs != 0 {
		t.Errorf("empty replay = %+v", p)
	}
	// Receiver ahead of sender (skip case): nothing to resend.
	if p := s.Replay(1, 400, 300); p.Bytes != 0 {
		t.Errorf("skip-case replay = %+v", p)
	}
}

func TestReplayAfterGC(t *testing.T) {
	s := NewSet(0, 0, 0)
	for i := 0; i < 5; i++ {
		s.Log(1, 100, 0)
	}
	s.GC(1, 200) // receiver confirmed 200 bytes at its last checkpoint
	p := s.Replay(1, 200, 500)
	if p.Bytes != 300 || p.Msgs != 3 {
		t.Errorf("replay = %+v, want 300 bytes / 3 msgs", p)
	}
}

func TestReplayUnknownPeerNothingOwed(t *testing.T) {
	s := NewSet(0, 0, 0)
	if p := s.Replay(9, 0, 0); p.Bytes != 0 {
		t.Errorf("plan = %+v", p)
	}
}

func TestReplayUnknownPeerOwedPanics(t *testing.T) {
	s := NewSet(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("missing log with owed bytes did not panic")
		}
	}()
	s.Replay(9, 0, 100)
}

// Property: for any sequence of logged sizes and any GC watermark,
// pending + flushed bookkeeping stays consistent and replay byte counts
// equal the requested range.
func TestLogInvariantsProperty(t *testing.T) {
	f := func(sizes []uint8, gcSeed uint16) bool {
		s := NewSet(0, 0, 0)
		var total int64
		for _, sz := range sizes {
			b := int64(sz) + 1
			s.Log(1, b, 0)
			total += b
		}
		if s.PendingFlush() != total {
			return false
		}
		s.MarkFlushed()
		if s.PendingFlush() != 0 {
			return false
		}
		if total == 0 {
			return true
		}
		gc := int64(gcSeed) % (total + 1)
		s.GC(1, gc)
		l := s.Get(1)
		// Entries must all end above the watermark and be ascending.
		var prev int64 = -1
		for _, e := range l.Entries {
			if e.Offset+e.Bytes <= gc {
				return false
			}
			if e.Offset <= prev {
				return false
			}
			prev = e.Offset
		}
		// Replay of (gc, total] reports exactly total-gc bytes.
		p := s.Replay(1, gc, total)
		return p.Bytes == total-gc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBackgroundFlusherDrainsPending(t *testing.T) {
	s := NewSet(0, 0, 100) // background flush at 100 B/s
	s.Log(1, 1000, 0)
	// 5 s later: 500 bytes drained in the background.
	s.Log(1, 0, 5*sim.Second)
	if got := s.PendingFlush(); got != 500 {
		t.Errorf("PendingFlush = %d, want 500", got)
	}
	// Long idle: background flush caps at the logged total.
	s.Log(1, 10, 1000*sim.Second)
	if got := s.PendingFlush(); got != 10 {
		t.Errorf("PendingFlush after long idle = %d, want 10", got)
	}
	// Sync flush clears everything and is never undone by bg accounting.
	s.MarkFlushed()
	if got := s.PendingFlush(); got != 0 {
		t.Errorf("PendingFlush after sync = %d", got)
	}
}
