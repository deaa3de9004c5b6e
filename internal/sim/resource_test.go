package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceServiceTime(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(L("disk"), 100) // 100 B/s
	var end Time
	k.Spawn(L("w"), func(p *Proc) {
		end = r.Use(p, 250)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Seconds(2.5) {
		t.Errorf("completion = %v, want 2.5s", end)
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(L("nic"), 100)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Spawn(L("w"), func(p *Proc) {
			ends = append(ends, r.Use(p, 100)) // 1s each
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Seconds(1), Seconds(2), Seconds(3)}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("ends = %v, want %v", ends, want)
			break
		}
	}
}

func TestReserveAtRespectsEarlierBookings(t *testing.T) {
	r := NewResource(L("nic"), 1000)
	end1 := r.ReserveAt(Seconds(1), 1000) // busy 1s..2s
	if end1 != Seconds(2) {
		t.Fatalf("end1 = %v", end1)
	}
	end2 := r.ReserveAt(Seconds(1.5), 500) // must queue: 2s..2.5s
	if end2 != Seconds(2.5) {
		t.Errorf("end2 = %v, want 2.5s", end2)
	}
	end3 := r.ReserveAt(Seconds(10), 1000) // idle gap, starts at 10s
	if end3 != Seconds(11) {
		t.Errorf("end3 = %v, want 11s", end3)
	}
}

func TestResourceStats(t *testing.T) {
	r := NewResource(L("disk"), 100)
	// At 100 B/s, back-to-back bookings of 300 and 200 bytes from t=0 keep
	// the server busy for exactly 5 s: their completion times account for
	// every byte served at the configured rate.
	if end := r.ReserveAt(0, 300); end != Seconds(3) {
		t.Errorf("first booking ends at %v, want 3s (300 B at 100 B/s)", end)
	}
	if end := r.ReserveAt(0, 200); end != Seconds(5) {
		t.Errorf("second booking ends at %v, want 5s (500 B busy at 100 B/s)", end)
	}
}

func TestResourceZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate did not panic")
		}
	}()
	NewResource(L("bad"), 0)
}

// Property: total completion time of n back-to-back requests equals the sum
// of their individual service times (work conservation), and completions are
// monotone in booking order.
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		r := NewResource(L("x"), 1000)
		var total int64
		var prev Time = -1
		for _, s := range sizes {
			n := int64(s)
			total += n
			end := r.ReserveAt(0, n)
			if end < prev {
				return false
			}
			prev = end
		}
		// Completion of the final booking must be ≥ total/rate and must
		// equal it when all bookings start at t=0 with no gaps.
		want := Time(float64(total) / 1000 * float64(Second))
		diff := prev - want
		if diff < 0 {
			diff = -diff
		}
		// Allow rounding: each booking rounds independently to 1ns.
		return diff <= Time(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
