package sim

import "testing"

func TestGateOpenPassesImmediately(t *testing.T) {
	k := NewKernel(1)
	g := NewGate(k, "g")
	var at Time = -1
	k.Spawn("a", func(p *Proc) {
		g.Pass(p)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Errorf("open gate blocked until %v", at)
	}
}

func TestGateClosedParksUntilOpen(t *testing.T) {
	k := NewKernel(1)
	g := NewGate(k, "g")
	g.Close()
	var at Time = -1
	k.Spawn("app", func(p *Proc) {
		g.Pass(p)
		at = p.Now()
	})
	k.Spawn("daemon", func(p *Proc) {
		p.Hold(Seconds(4))
		g.Open()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Seconds(4) {
		t.Errorf("gate released at %v, want 4s", at)
	}
}

func TestGateWaitingCount(t *testing.T) {
	k := NewKernel(1)
	g := NewGate(k, "g")
	g.Close()
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) { g.Pass(p) })
	}
	k.Spawn("check", func(p *Proc) {
		p.Hold(Second)
		if len(g.waiters) != 3 {
			t.Errorf("Waiting = %d, want 3", len(g.waiters))
		}
		if !g.closed {
			t.Error("gate should be closed")
		}
		g.Open()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(g.waiters) != 0 {
		t.Errorf("Waiting after open = %d", len(g.waiters))
	}
}

func TestGateRecloseHoldsPassers(t *testing.T) {
	// A gate closed again at the same instant it opens must keep holding
	// processes (Pass re-checks in a loop).
	k := NewKernel(1)
	g := NewGate(k, "g")
	g.Close()
	released := false
	k.Spawn("app", func(p *Proc) {
		g.Pass(p)
		released = true
	})
	k.Spawn("daemon", func(p *Proc) {
		p.Hold(Second)
		g.Open()
		g.Close() // immediately reclose before the app's wakeup event runs
		p.Hold(Second)
		g.Open()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Error("app never released")
	}
}

func TestCounterAwait(t *testing.T) {
	k := NewKernel(1)
	c := NewCounter(k, "c")
	var at Time = -1
	k.Spawn("waiter", func(p *Proc) {
		c.AwaitAtLeast(p, 100)
		at = p.Now()
	})
	k.Spawn("adder", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Hold(Second)
			c.Add(30)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Seconds(4) { // reaches 120 ≥ 100 at t=4
		t.Errorf("await released at %v, want 4s", at)
	}
	if c.Value() != 120 {
		t.Errorf("Value = %d", c.Value())
	}
}

func TestCounterAlreadySatisfied(t *testing.T) {
	k := NewKernel(1)
	c := NewCounter(k, "c")
	c.Add(50)
	var at Time = -1
	k.Spawn("w", func(p *Proc) {
		p.Hold(Second)
		c.AwaitAtLeast(p, 50)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Second {
		t.Errorf("already-satisfied await blocked until %v", at)
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	NewCounter(NewKernel(1), "c").Add(-1)
}

func TestCounterMultipleWaitersDifferentTargets(t *testing.T) {
	k := NewKernel(1)
	c := NewCounter(k, "c")
	var r10, r20 Time
	k.Spawn("w10", func(p *Proc) { c.AwaitAtLeast(p, 10); r10 = p.Now() })
	k.Spawn("w20", func(p *Proc) { c.AwaitAtLeast(p, 20); r20 = p.Now() })
	k.Spawn("add", func(p *Proc) {
		p.Hold(Second)
		c.Add(10)
		p.Hold(Second)
		c.Add(10)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r10 != Second || r20 != Seconds(2) {
		t.Errorf("r10=%v r20=%v, want 1s/2s", r10, r20)
	}
}
