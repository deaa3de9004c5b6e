package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// The partitioned kernel's contract, tested directly on small models: the
// worker count changes nothing observable. Each model runs at RunWorkers 1
// (a pool of one: the coordinator runs every window) and 2 and 4 (pools
// with helpers), and every log line, event count, stall count and round
// count must agree.

const (
	ringParts     = 4
	ringLookahead = 10 * Microsecond
	ringLaps      = 6 // each token visits each partition this many times
)

// ringModel is a cross-partition token ring: every partition starts one
// token, and each token hops from partition to partition via CrossAt1 until
// it has visited every partition ringLaps times. Receivers hold for a
// partition-random time before forwarding, so partitions drift apart and
// rounds stall some of them. Each partition logs only from its own context;
// global events log the quiesced cross-partition state.
type ringModel struct {
	k     *Kernel
	col   *metrics.Collector // the kernel's instruments: rounds and stalls
	logs  [ringParts][]string
	glog  []string
	hooks int
}

func newRingModel(workers int) *ringModel {
	m := &ringModel{k: NewKernel(7), col: metrics.New()}
	k := m.k
	k.SetMetrics(NewMetrics(m.col))
	k.SetPartitions(ringParts, ringLookahead)
	k.SetRunWorkers(workers)
	k.OnBarrier(func() { m.hooks++ })

	var mbs [ringParts]*Mailbox
	var deliver [ringParts]func(any)
	for i := range mbs {
		mbs[i] = NewMailbox(k, fmt.Sprintf("ring%d", i))
		mb := mbs[i]
		deliver[i] = func(v any) { mb.PutKeyed(v, 0, 0) }
	}
	const hops = ringParts*ringLaps - 1 // a token is received hops+1 times
	for i := 0; i < ringParts; i++ {
		i := i
		next := (i + 1) % ringParts
		k.PartAt1(i, 0, deliver[i], 0)
		k.SpawnIn(i, fmt.Sprintf("player%d", i), func(p *Proc) {
			rng := k.PartRand(i)
			for n := 0; n < ringParts*ringLaps; n++ {
				hop := mbs[i].RecvKeyed(p, AnyKey, 0).(int)
				m.logs[i] = append(m.logs[i], fmt.Sprintf("t=%d p%d hop=%d", p.Now(), i, hop))
				p.Hold(Time(rng.Int63n(int64(3 * ringLookahead))))
				if hop < hops {
					k.CrossAt1(i, next, p.Now()+ringLookahead+Time(rng.Int63n(int64(ringLookahead))), deliver[next], hop+1)
				}
			}
		})
		// Local traffic beside the ring: a partition-internal ticker.
		k.SpawnIn(i, fmt.Sprintf("ticker%d", i), func(p *Proc) {
			for n := 0; n < 20; n++ {
				p.Hold(7 * Microsecond)
				m.logs[i] = append(m.logs[i], fmt.Sprintf("t=%d p%d tick", p.Now(), i))
			}
		})
	}
	// Global events interleaved with the ring: each reads every
	// partition's progress, which is only well defined while all are
	// quiesced.
	for t := Time(0); t < 400*Microsecond; t += 33 * Microsecond {
		k.GlobalAt(t, func() {
			var b strings.Builder
			fmt.Fprintf(&b, "global t=%d", k.Now())
			for i := range m.logs {
				fmt.Fprintf(&b, " %d", len(m.logs[i]))
			}
			m.glog = append(m.glog, b.String())
		})
	}
	return m
}

// ringOutcome is everything a run of a model exposes.
type ringOutcome struct {
	Err     string
	Logs    [ringParts][]string
	Glog    []string
	Events  uint64
	Stalls  uint64
	Rounds  uint64
	Hooks   int
	EndTime Time
}

func (m *ringModel) run(t *testing.T) ringOutcome {
	t.Helper()
	err := m.k.Run()
	snap := m.col.Snapshot()
	stalls, _ := snap.Counter("sim_lookahead_stalls_total")
	rounds, _ := snap.Counter("sim_rounds_total")
	out := ringOutcome{
		Logs: m.logs, Glog: m.glog,
		Events: m.k.Events(), Stalls: uint64(stalls), Rounds: uint64(rounds),
		Hooks: m.hooks, EndTime: m.k.Now(),
	}
	if err != nil {
		out.Err = err.Error()
	}
	// Barrier hooks fire once per round, plus the final flush of a run that
	// ends without error.
	want := int(out.Rounds)
	if err == nil {
		want++
	}
	if out.Hooks != want {
		t.Errorf("barrier hooks fired %d times over %d rounds (err=%v), want %d", out.Hooks, out.Rounds, err, want)
	}
	m.k.Shutdown()
	return out
}

// forWorkers runs build+check at RunWorkers 1, 2 and 4 and demands identical
// outcomes; it also checks that no goroutine survives Shutdown. GOMAXPROCS
// is raised to 4 meanwhile, so that RunWorkers 4 runs a pool of 4.
func forWorkers(t *testing.T, build func(workers int) *ringModel, check func(t *testing.T, out ringOutcome)) {
	t.Helper()
	raiseProcs(t, 4)
	before := runtime.NumGoroutine()
	var ref ringOutcome
	for _, w := range []int{1, 2, 4} {
		out := build(w).run(t)
		t.Logf("RunWorkers %d: %s", w, summary(out))
		check(t, out)
		if w == 1 {
			ref = out
			continue
		}
		if !reflect.DeepEqual(out, ref) {
			t.Errorf("RunWorkers %d diverges from RunWorkers 1:\n got  %+v\n want %+v", w, summary(out), summary(ref))
		}
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after Shutdown", before, after)
	}
}

func summary(o ringOutcome) string {
	n := 0
	for _, l := range o.Logs {
		n += len(l)
	}
	return fmt.Sprintf("err=%q lines=%d globals=%d events=%d stalls=%d rounds=%d hooks=%d end=%v",
		o.Err, n, len(o.Glog), o.Events, o.Stalls, o.Rounds, o.Hooks, o.EndTime)
}

func TestPartitionedRingIdenticalAtEveryWorkerCount(t *testing.T) {
	forWorkers(t, newRingModel, func(t *testing.T, out ringOutcome) {
		if out.Err != "" {
			t.Fatalf("Run: %s", out.Err)
		}
		for i, l := range out.Logs {
			if want := ringParts*ringLaps + 20; len(l) != want {
				t.Errorf("partition %d logged %d lines, want %d", i, len(l), want)
			}
		}
		if len(out.Glog) == 0 || out.Rounds == 0 || out.Stalls == 0 {
			t.Errorf("model too tame to test anything: %s", summary(out))
		}
	})
}

func TestPartitionedHorizon(t *testing.T) {
	const horizon = 150 * Microsecond
	forWorkers(t, func(w int) *ringModel {
		m := newRingModel(w)
		m.k.SetHorizon(horizon)
		return m
	}, func(t *testing.T, out ringOutcome) {
		if out.Err != "" {
			t.Fatalf("Run at horizon: %s", out.Err)
		}
		if out.EndTime > horizon {
			t.Errorf("run ended at %v, beyond the horizon %v", out.EndTime, horizon)
		}
		if len(out.Logs[0]) >= ringParts*ringLaps+20 {
			t.Error("horizon did not cut the run short")
		}
	})
}

func TestPartitionedInterruptFromGlobalEvent(t *testing.T) {
	// An interrupt raised by a global event lands while every partition is
	// quiesced, so even the point where the run stops is deterministic.
	forWorkers(t, func(w int) *ringModel {
		m := newRingModel(w)
		m.k.GlobalAt(120*Microsecond, m.k.Interrupt)
		return m
	}, func(t *testing.T, out ringOutcome) {
		if out.Err != ErrCanceled.Error() {
			t.Fatalf("Run = %q, want ErrCanceled", out.Err)
		}
		if len(out.Logs[0]) == 0 || len(out.Logs[0]) >= ringParts*ringLaps+20 {
			t.Errorf("interrupt did not land mid-run: %d lines in partition 0", len(out.Logs[0]))
		}
	})
}

func TestPartitionedDeadlock(t *testing.T) {
	forWorkers(t, func(w int) *ringModel {
		m := newRingModel(w)
		never := NewMailbox(m.k, "never")
		m.k.SpawnIn(2, "stuck", func(p *Proc) { never.RecvKeyed(p, AnyKey, 0) })
		return m
	}, func(t *testing.T, out ringOutcome) {
		if !strings.Contains(out.Err, "deadlock") || !strings.Contains(out.Err, "stuck") {
			t.Fatalf("Run = %q, want a deadlock naming the stuck process", out.Err)
		}
	})
	m := newRingModel(1)
	never := NewMailbox(m.k, "never")
	m.k.SpawnIn(3, "stuck", func(p *Proc) { never.RecvKeyed(p, AnyKey, 0) })
	err := m.k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) || len(de.Blocked) != 1 {
		t.Fatalf("Run = %v, want a *DeadlockError with one blocked process", err)
	}
	m.k.Shutdown()
}

// TestPartitionedInterruptFromOutside cancels from a foreign goroutine, the
// way context plumbing does. Where the run stops is not deterministic, but
// every worker count must come back with ErrCanceled and leak nothing.
func TestPartitionedInterruptFromOutside(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, w := range []int{1, 2, 4} {
		k := NewKernel(1)
		k.SetPartitions(ringParts, ringLookahead)
		k.SetRunWorkers(w)
		for i := 0; i < ringParts; i++ {
			k.SpawnIn(i, "spinner", func(p *Proc) {
				for {
					p.Hold(Microsecond)
				}
			})
		}
		started := make(chan struct{})
		k.PartAt(0, Microsecond, func() { close(started) })
		go func() {
			<-started
			k.Interrupt()
		}()
		if err := k.Run(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("RunWorkers %d: Run = %v, want ErrCanceled", w, err)
		}
		k.Shutdown()
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after Shutdown", before, after)
	}
}

// TestCrossAt1RefusesOutsideWindow: only a partition inside its window may
// stage a cross-partition event, because the barrier merges only the
// outboxes of partitions that ran. A global event must use PartAt1.
func TestCrossAt1RefusesOutsideWindow(t *testing.T) {
	k := NewKernel(1)
	k.SetPartitions(2, ringLookahead)
	k.SpawnIn(1, "idle", func(p *Proc) { p.Hold(Microsecond) })
	k.GlobalAt(0, func() {
		k.CrossAt1(0, 1, ringLookahead, func(any) {}, nil)
	})
	defer k.Shutdown()
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "outside partition 0's window") {
			t.Errorf("CrossAt1 from a global event: recovered %v, want an outside-window panic", r)
		}
	}()
	_ = k.Run()
}

// TestSerialKernelBarrierFiresOnce: a single-partition kernel counts no
// rounds — its one window runs to the horizon — and its barrier hooks fire
// only for the final flush.
func TestSerialKernelBarrierFiresOnce(t *testing.T) {
	k := NewKernel(1)
	col := metrics.New()
	k.SetMetrics(NewMetrics(col))
	hooks := 0
	k.OnBarrier(func() { hooks++ })
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Hold(Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds, _ := col.Snapshot().Counter("sim_rounds_total"); hooks != 1 || rounds != 0 {
		t.Errorf("hooks=%d rounds=%d, want 1 and 0", hooks, rounds)
	}
}
