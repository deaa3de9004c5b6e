package sim

import "testing"

type tmsg struct{ src, tag int }

func TestMailboxFIFO(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	var got []int
	k.Spawn(L("recv"), func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.RecvKeyed(p, AnyKey, 0).(int))
		}
	})
	k.Spawn(L("send"), func(p *Proc) {
		for i := 0; i < 3; i++ {
			mb.PutKeyed(i, 0, 0)
			p.Hold(Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want [0 1 2]", got)
		}
	}
}

func TestMailboxQueuedMessageMatchedImmediately(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	mb.PutKeyed(tmsg{src: 7}, 7, 0)
	var at Time = -1
	k.Spawn(L("recv"), func(p *Proc) {
		p.Hold(Second)
		mb.RecvKeyed(p, 7, 0)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Second {
		t.Errorf("recv of queued message blocked until %v", at)
	}
}

func TestMailboxMultipleWaitersFIFO(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	var order []string
	spawnWaiter := func(name string) {
		k.Spawn(L(name), func(p *Proc) {
			mb.RecvKeyed(p, AnyKey, 0)
			order = append(order, name)
		})
	}
	spawnWaiter("first")
	spawnWaiter("second")
	k.Spawn(L("send"), func(p *Proc) {
		p.Hold(Second)
		mb.PutKeyed(1, 0, 0)
		p.Hold(Second)
		mb.PutKeyed(2, 0, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("waiter wake order = %v", order)
	}
}

func TestMailboxWaitersMatchedByKey(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	var tagGot = map[int]int{}
	for _, tag := range []int{10, 20} {
		tag := tag
		k.Spawn(L("recv"), func(p *Proc) {
			v := mb.RecvKeyed(p, AnyKey, tag)
			tagGot[tag] = v.(tmsg).src
		})
	}
	k.Spawn(L("send"), func(p *Proc) {
		p.Hold(Millisecond)
		mb.PutKeyed(tmsg{src: 1, tag: 20}, 1, 20) // delivered to the tag=20 waiter
		mb.PutKeyed(tmsg{src: 2, tag: 10}, 2, 10)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tagGot[20] != 1 || tagGot[10] != 2 {
		t.Errorf("tagGot = %v", tagGot)
	}
}

func TestMailboxPutFromKernelContext(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox(L("mb"))
	var at Time
	k.Spawn(L("recv"), func(p *Proc) {
		mb.RecvKeyed(p, AnyKey, 0)
		at = p.Now()
	})
	k.At(Seconds(2), func() { mb.PutKeyed("x", 0, 0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Seconds(2) {
		t.Errorf("received at %v, want 2s", at)
	}
}
