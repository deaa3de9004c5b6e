package paper

import "testing"

// TestOptionsReps pins the defaults the figures read: the paper's five
// repetitions, two under Quick, and explicit Scales overriding both
// figure-specific lists.
func TestOptionsReps(t *testing.T) {
	var o Options
	if o.reps() != 5 {
		t.Errorf("default reps = %d", o.reps())
	}
	if (Options{Quick: true}).reps() != 2 {
		t.Error("quick reps != 2")
	}
	if got := (Options{Scales: []int{9}}).scales([]int{1}, []int{2}); got[0] != 9 {
		t.Error("explicit scales ignored")
	}
}
