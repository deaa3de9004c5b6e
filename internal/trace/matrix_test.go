package trace

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// feedBoth replays the same synthetic event stream into a Recorder and a
// CommMatrix through a Tee, as a world with both observers would.
func feedBoth(events int, seed int64) (*Recorder, *CommMatrix) {
	rec := &Recorder{}
	m := NewCommMatrix()
	tee := Tee{rec, m}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < events; i++ {
		src, dst := rng.Intn(16), rng.Intn(16)
		bytes := int64(rng.Intn(10_000))
		tee.Send(sim.Time(i), src, dst, rng.Intn(8), bytes)
		if rng.Intn(2) == 0 {
			tee.Deliver(sim.Time(i)+5, src, dst, 1, bytes)
		}
	}
	return rec, m
}

func TestMatrixPairsMatchAggregate(t *testing.T) {
	rec, m := feedBoth(5000, 7)
	want := Aggregate(rec.Records)
	got := m.Pairs()
	if len(got) != len(want) {
		t.Fatalf("pairs = %d, aggregate = %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: matrix %+v, aggregate %+v", i, got[i], want[i])
		}
	}
}

func TestMatrixTotalsAndLookups(t *testing.T) {
	m := NewCommMatrix()
	m.Send(0, 1, 2, 0, 100)
	m.Send(1, 2, 1, 0, 50)  // same unordered pair, reverse direction
	m.Send(2, 3, 3, 0, 999) // self-send: excluded
	m.Send(3, 0, 5, 0, 10)
	if m.Sends() != 3 {
		t.Errorf("Sends = %d, want 3 (self-send excluded)", m.Sends())
	}
	if m.TotalBytes() != 160 {
		t.Errorf("TotalBytes = %d, want 160", m.TotalBytes())
	}
	if n := len(m.Pairs()); n != 2 {
		t.Errorf("NumPairs = %d, want 2", n)
	}
	if got := pairBytes(m, 2, 1); got != 150 {
		t.Errorf("PairBytes(2,1) = %d, want 150 (both directions)", got)
	}
	if got := pairBytes(m, 0, 5); got != 10 {
		t.Errorf("PairBytes(0,5) = %d, want 10", got)
	}
	if got := pairBytes(m, 4, 7); got != 0 {
		t.Errorf("PairBytes(4,7) = %d, want 0", got)
	}
}

func TestMatrixDeliversIgnored(t *testing.T) {
	m := NewCommMatrix()
	m.Send(0, 1, 2, 0, 100)
	m.Deliver(5, 1, 2, 0, 100)
	if m.Sends() != 1 || m.TotalBytes() != 100 {
		t.Errorf("deliver counted: %d sends, %d bytes", m.Sends(), m.TotalBytes())
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	tee := Tee{a, b}
	tee.Send(1, 0, 1, 2, 64)
	tee.Deliver(2, 0, 1, 2, 64)
	for i, r := range []*Recorder{a, b} {
		if len(r.Records) != 2 {
			t.Errorf("recorder %d saw %d records, want 2", i, len(r.Records))
		}
	}
}

// pairBytes returns the total bytes m folded between the unordered pair
// (a, b), read from Pairs as group formation reads it.
func pairBytes(m *CommMatrix, a, b int) int64 {
	if a > b {
		a, b = b, a
	}
	for _, p := range m.Pairs() {
		if p.A == a && p.B == b {
			return p.Bytes
		}
	}
	return 0
}
