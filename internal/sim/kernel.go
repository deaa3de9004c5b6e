package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCanceled is returned by Run when the kernel was interrupted (see
// Interrupt) before the event queue drained. Callers cancel a simulation by
// arranging for Interrupt to fire — e.g. via context.AfterFunc — and then
// matching this sentinel with errors.Is.
var ErrCanceled = errors.New("sim: run interrupted")

// event is a scheduled occurrence: the wakeup of a blocked process, a
// kernel-context callback, or a pre-bound callback with one argument (the
// allocation-free form used by the message delivery path).
type event struct {
	at    Time
	seq   uint64    // tie-break: FIFO among events at the same instant
	p     *Proc     // non-nil: resume this process…
	token uint64    // …if its wake token still matches
	fn    func()    // non-nil: run this callback in kernel context
	fn1   func(any) // non-nil: run fn1(arg) in kernel context
	arg   any
}

// before orders events by (at, seq).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a concrete min-heap of event values ordered by (at, seq).
// Every simulated operation funnels through push/pop here, so the heap is
// deliberately monomorphic: events are stored by value (one backing array,
// no per-event allocation) and sifted with inlined comparisons instead of
// container/heap's interface calls. The heap.Interface version this
// replaces boxed each *event through `any` and paid a dynamic dispatch per
// comparison and swap; see BenchmarkKernelEventChurn.
type eventHeap struct {
	a []event
}

func (h *eventHeap) Len() int { return len(h.a) }

func (h *eventHeap) peek() *event { return &h.a[0] }

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	// Sift up, moving the hole instead of swapping.
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h.a[parent]) {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = e
}

func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	last := h.a[n]
	h.a[n] = event{} // release the callback/proc references
	h.a = h.a[:n]
	if n > 0 {
		// Sift the former last element down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h.a[r].before(&h.a[c]) {
				c = r
			}
			if !h.a[c].before(&last) {
				break
			}
			h.a[i] = h.a[c]
			i = c
		}
		h.a[i] = last
	}
	return top
}

// xev is a cross-partition event staged in the sending partition's outbox
// during a window and merged into the destination partition's heap at the
// round barrier. Staging is append-only into a reused slice, so the
// cross-partition send path allocates nothing in steady state.
type xev struct {
	dst int
	at  Time
	fn1 func(any)
	arg any
}

// infTime is beyond any reachable virtual time; used as the "no bound" /
// "no event" sentinel in the coordinator.
const infTime = Time(1<<62 - 1)

// partition is one sub-kernel: a slice of the simulation (a set of processes
// and everything they touch exclusively) with its own event heap, clock,
// sequence counter, and random stream. During a multi-partition round, each
// runnable partition executes its window with no coordination whatsoever —
// the conservative bounds computed by the coordinator guarantee no event
// destined to it can materialize inside its window.
type partition struct {
	k      *Kernel
	id     int
	now    Time
	eq     eventHeap
	seq    uint64
	procs  []*Proc
	live   int // non-daemon processes that have not finished
	rng    *rand.Rand
	events uint64
	bound  Time         // exclusive upper bound of the current window
	open   bool         // a window is in progress: the only time CrossAt1 may stage
	outbox []xev        // cross-partition events staged this window
	depths []int32      // queue-depth samples taken this window, for closeRound to observe
	fault  any          // a panic recovered from this partition's window by a pool member
	idle   []*coroutine // coroutines whose body returned, for the next process that needs one
}

// depthSampleEvery is the sim_queue_depth sampling period: with metrics
// attached, a partition records its queue depth at every depthSampleEvery-th
// event it processes. The sample depends only on the partition's own event
// sequence, so the histogram is the same at every worker count.
const depthSampleEvery = 32

// Kernel is a discrete-event simulation kernel. The zero value is not usable;
// construct with NewKernel.
//
// Simulated processes run on coroutines (iter.Pull), each resumed by a
// home loop (drive): the pool member running the partition's window. A
// process gets a coroutine at its first resume and, if it goes dormant (see
// Proc), again at its first resume after that: an idle one its partition
// keeps, or a new one. A blocking process runs its partition's event loop
// itself (dispatch): callbacks run inline, and when the next wakeup is its
// own it keeps running with no switch at all. Otherwise it yields the
// process to resume next to the home loop, which resumes it — two coroutine
// switches, with no run queue, thread wakeup or channel in between. The
// home loop ends with the window.
//
// Run advances virtual time in rounds: the coordinator opens a window, the
// partitions whose next events fall inside it process them — in parallel,
// on a pool of up to SetRunWorkers goroutines — and the coordinator closes
// the round by merging the cross-partition events staged during it. A
// kernel starts with a single partition, the classic serial kernel: its one
// round's window runs to the horizon. SetPartitions splits the simulation
// into independent sub-kernels synchronized by conservative lookahead: each
// window is [T, T + lookahead) — T being the smallest next-event time across
// partitions, the window further capped by the next global event and the
// horizon. Every cross-partition event carries at least one lookahead of
// delay, so nothing generated during a round (by any chain of hops) can
// land inside it. Because the windows and the merge order depend only on
// event timestamps (never on which goroutine ran what when), the simulation
// is byte-identical at every worker count, including 1.
type Kernel struct {
	parts []*partition
	rng   *rand.Rand // master stream: construction-time draws + partition 0

	// Global (barrier-synchronized) events. They execute only when every
	// partition has consumed all events strictly before their timestamp,
	// so a global callback observes a deterministic, fully-quiesced
	// simulation state — failure injectors run here.
	gq      eventHeap
	gseq    uint64
	gnow    Time
	gevents uint64

	lookahead Time // minimum cross-partition event delay; > 0 when partitioned
	workers   int  // max partitions executing concurrently per round
	members   int  // this Run's pool size, Run's goroutine included

	// Round state, owned by the coordinator (Run's goroutine).
	runnable []*partition // the open round's partitions, in partition order
	err      error        // the run's outcome

	barriers []func() // flush hooks, run after every round merge

	running bool
	stopAt  Time     // 0 = no horizon
	metrics *Metrics // nil unless observing; see SetMetrics

	// intr is set by Interrupt (any goroutine); step checks it between
	// events, so every running event loop stops promptly and Run returns
	// ErrCanceled.
	intr atomic.Bool
}

// NewKernel returns a kernel whose random source is seeded with seed.
// Identical seeds produce identical simulations.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{rng: NewRand(seed)}
	k.parts = []*partition{{k: k, id: 0, rng: k.rng}}
	return k
}

// SetPartitions splits the kernel into n sub-kernels synchronized by
// conservative lookahead: every cross-partition event must carry a delay of
// at least lookahead (the network latency, for a message-passing
// simulation). Call once, after construction-time randomness (cluster
// seeding) and before any process is spawned outside partition 0; panics
// otherwise. n == 1 leaves the classic serial kernel untouched.
//
// Partition 1..n-1 random streams are derived deterministically from the
// master stream, so the partition count — but never the worker count —
// is part of the simulation's identity.
func (k *Kernel) SetPartitions(n int, lookahead Time) {
	switch {
	case k.running:
		panic("sim: SetPartitions during Run")
	case len(k.parts) != 1 || len(k.parts[0].procs) != 0:
		panic("sim: SetPartitions after processes were spawned")
	case n < 1:
		panic("sim: SetPartitions with n < 1")
	}
	if n == 1 {
		return
	}
	if lookahead <= 0 {
		panic("sim: multi-partition kernel requires positive lookahead")
	}
	k.lookahead = lookahead
	for i := 1; i < n; i++ {
		k.parts = append(k.parts, &partition{
			k: k, id: i, rng: NewRand(k.rng.Int63()),
		})
	}
}

// SetRunWorkers bounds how many partitions execute concurrently within each
// round (default 1 = sequential). The simulation output is byte-identical at
// every setting; only wall-clock time changes. Values above the partition
// count or GOMAXPROCS are clamped: a run uses no more threads than
// GOMAXPROCS.
func (k *Kernel) SetRunWorkers(n int) {
	if n < 1 {
		n = 1
	}
	k.workers = n
}

// OnBarrier registers fn to run in coordinator context after every round's
// cross-partition merge (and once more when the run ends). All partitions
// are quiesced when it runs; engines use it to flush per-partition buffers
// in a deterministic order. Barrier hooks never fire on a single-partition
// kernel during the run — only the final flush does. They fire after every
// round, so a hook should return at once when nothing was buffered.
func (k *Kernel) OnBarrier(fn func()) { k.barriers = append(k.barriers, fn) }

// Now returns the current virtual time: the serial clock on a
// single-partition kernel, and the global lower-bound clock (advanced by
// barrier-synchronized events; equal to the completion time after Run
// returns) on a partitioned one. Inside a partition's window, use
// Proc.Now or PartNow — partition clocks advance independently.
func (k *Kernel) Now() Time {
	if len(k.parts) == 1 {
		return k.parts[0].now
	}
	return k.gnow
}

// PartNow returns partition p's local virtual time.
func (k *Kernel) PartNow(p int) Time { return k.parts[p].now }

// Rand returns the kernel's master deterministic random source (also
// partition 0's stream). Draws made during a partitioned run must instead
// use PartRand with the caller's own partition.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// PartRand returns partition p's deterministic random stream. On a
// single-partition kernel PartRand(0) is the master stream, so code that
// routes its draws through PartRand is bit-identical to the classic kernel
// when unpartitioned.
func (k *Kernel) PartRand(p int) *rand.Rand { return k.parts[p].rng }

// Events returns the number of events processed so far (for diagnostics).
func (k *Kernel) Events() uint64 {
	n := k.gevents
	for _, pt := range k.parts {
		n += pt.events
	}
	return n
}

// Procs returns the processes spawned so far, grouped by partition in spawn
// order.
func (k *Kernel) Procs() []*Proc {
	if len(k.parts) == 1 {
		return k.parts[0].procs
	}
	var all []*Proc
	for _, pt := range k.parts {
		all = append(all, pt.procs...)
	}
	return all
}

// SetHorizon makes Run stop once virtual time would exceed t. Zero disables
// the horizon.
func (k *Kernel) SetHorizon(t Time) { k.stopAt = t }

// Interrupt requests that Run stop between events and return ErrCanceled.
// It is the only Kernel method safe to call from outside the simulation —
// context plumbing hangs a context.AfterFunc on it. Interrupting does not
// unwind suspended processes; call Shutdown (after Run returns) for that.
func (k *Kernel) Interrupt() { k.intr.Store(true) }

// At schedules fn to run in kernel context at virtual time t (or now, if t is
// in the past). fn must not block: it may schedule events, put messages into
// mailboxes, and spawn processes, but must not call Hold, RecvKeyed, or any other
// blocking primitive. "Kernel context" is whichever process or home loop
// is running the event loop when the event fires. On a partitioned kernel,
// At targets partition 0; use PartAt from any other partition's context.
func (k *Kernel) At(t Time, fn func()) { k.PartAt(0, t, fn) }

// PartAt is At targeting partition p. It may be called before Run, from
// partition p's own context, or from a global (barrier) event.
func (k *Kernel) PartAt(p int, t Time, fn func()) {
	pt := k.parts[p]
	if t < pt.now {
		t = pt.now
	}
	pt.seq++
	pt.eq.push(event{at: t, seq: pt.seq, fn: fn})
}

// PartAt1 is PartAt for a pre-bound callback taking one argument. Because
// fn can be a long-lived closure and arg rides in the event's interface
// slot, a hot path that schedules the same handler for every message (mpi
// delivery) allocates nothing per call. The caller must be partition p's
// own context (or pre-run / a global event): scheduling into a foreign
// partition's heap mid-window is a data race — that is what CrossAt1 is for.
func (k *Kernel) PartAt1(p int, t Time, fn func(any), arg any) { k.parts[p].at1(t, fn, arg) }

// at1 schedules fn(arg) at time t (or now, if t is past) in pt.
func (pt *partition) at1(t Time, fn func(any), arg any) {
	if t < pt.now {
		t = pt.now
	}
	pt.seq++
	pt.eq.push(event{at: t, seq: pt.seq, fn1: fn, arg: arg})
}

// CrossAt1 schedules fn(arg) at time t in partition dst from partition
// src's executing context. Same-partition calls push directly; foreign
// events are staged in src's outbox and merged at the round barrier, which
// requires t ≥ the staging instant + the kernel's lookahead — the
// coordinator panics on a violation, because it would mean a partition
// observed an event the conservative bound said could not exist. Mid-run,
// staging is legal only inside src's window: the barrier merges just the
// outboxes of the partitions that ran. Global events and barrier hooks run
// with every partition quiesced and use PartAt1 instead.
func (k *Kernel) CrossAt1(src, dst int, t Time, fn func(any), arg any) {
	if src == dst || !k.running {
		k.PartAt1(dst, t, fn, arg)
		return
	}
	sp := k.parts[src]
	if !sp.open {
		panic(fmt.Sprintf("sim: cross-partition event %d→%d staged outside partition %d's window", src, dst, src))
	}
	if t < sp.now+k.lookahead {
		panic(fmt.Sprintf("sim: cross-partition event %d→%d at t=%d staged under the lookahead floor (now=%d, lookahead=%d)",
			src, dst, t, sp.now, k.lookahead))
	}
	sp.outbox = append(sp.outbox, xev{dst: dst, at: t, fn1: fn, arg: arg})
}

// GlobalAt schedules fn as a barrier-synchronized global event at time t: it
// runs in coordinator context once every partition has processed all events
// strictly before t, observing a deterministic quiesced state. On a
// single-partition kernel it is plain At — same semantics, no barrier
// needed.
func (k *Kernel) GlobalAt(t Time, fn func()) {
	if len(k.parts) == 1 {
		k.At(t, fn)
		return
	}
	if t < k.gnow {
		t = k.gnow
	}
	k.gseq++
	k.gq.push(event{at: t, seq: k.gseq, fn: fn})
}

// GlobalAfter is GlobalAt relative to the global clock.
func (k *Kernel) GlobalAfter(d Time, fn func()) { k.GlobalAt(k.Now()+d, fn) }

// scheduleWake schedules the resumption of p at time t. The wake is dropped
// if p is woken by another path first (its token advances on every resume).
func (pt *partition) scheduleWake(t Time, p *Proc) {
	if t < pt.now {
		t = pt.now
	}
	pt.seq++
	pt.eq.push(event{at: t, seq: pt.seq, p: p, token: p.token})
}

// Spawn creates a simulated process labelled l running fn and schedules it
// to start at the current virtual time, in partition 0.
func (k *Kernel) Spawn(l Label, fn func(p *Proc)) *Proc {
	return k.spawn(k.parts[0], l, fn, false)
}

// SpawnIn is Spawn into a specific partition. Mid-run, the caller must be
// executing in that partition.
func (k *Kernel) SpawnIn(part int, l Label, fn func(p *Proc)) *Proc {
	return k.spawn(k.parts[part], l, fn, false)
}

// SpawnDaemonIn is SpawnIn for background service processes (protocol
// daemons, controllers). A blocked daemon does not count as a deadlock: Run
// returns nil when only daemons remain.
func (k *Kernel) SpawnDaemonIn(part int, l Label, fn func(p *Proc)) *Proc {
	return k.spawn(k.parts[part], l, fn, true)
}

func (k *Kernel) spawn(pt *partition, l Label, fn func(p *Proc), daemon bool) *Proc {
	// The process gets a coroutine at its first resume (Proc.take):
	// until then it costs no goroutine, and one never resumed costs none
	// at all.
	p := &Proc{
		pt:      pt,
		label:   l,
		body:    fn,
		blocked: true,
		verb:    "start",
		daemon:  daemon,
	}
	pt.procs = append(pt.procs, p)
	if !daemon {
		pt.live++
	}
	pt.scheduleWake(pt.now, p)
	return p
}

// killed is the panic payload that unwinds a suspended process from inside
// its blocking primitive once Shutdown stops its coroutine.
type killed struct{}

// Shutdown stops every coroutine the kernel holds. A simulation that ends
// with processes suspended in a primitive — daemons after a normal run,
// application ranks after an interrupt, horizon, deadlock or panic —
// leaves their coroutines suspended forever otherwise, and so are the idle
// coroutines that dormant bodies gave back; a long-lived caller running many
// simulations would accumulate their goroutines without bound. Shutdown
// stops each one: a suspended process panics out of its primitive with
// killed{}, which Proc.run recovers, and an idle coroutine just ends. A
// process never resumed, or dormant, has no coroutine to stop. Shutdown is
// idempotent, must not be called while Run is in flight, and leaves the
// kernel unusable for further Runs.
func (k *Kernel) Shutdown() {
	if k.running {
		panic("sim: Shutdown during Run")
	}
	for _, pt := range k.parts {
		for _, p := range pt.procs {
			if p.co != nil {
				p.co.stop()
			}
		}
		for _, c := range pt.idle {
			c.stop()
		}
		pt.idle = nil
	}
}

// step pops and executes the partition's next runnable event. Kernel-context
// callbacks run inline; a valid process wakeup is returned as resume (with
// the wake token already advanced) for the caller to transfer control to.
// processed is false when nothing remains runnable — the queue drained or
// the next event lies at or beyond the window bound. dispatch is the one
// loop around it, so every event kind is handled identically whoever runs
// the event loop. step records no metric: the coordinator folds in the
// partition's event count and queue-depth samples.
func (pt *partition) step() (resume *Proc, processed bool) {
	k := pt.k
	if k.intr.Load() {
		return nil, false
	}
	if pt.eq.Len() == 0 {
		return nil, false
	}
	if pt.eq.peek().at >= pt.bound {
		return nil, false
	}
	ev := pt.eq.pop()
	if ev.at < pt.now {
		panic("sim: time reversal")
	}
	pt.now = ev.at
	pt.events++
	if pt.events%depthSampleEvery == 0 && k.metrics != nil {
		pt.depths = append(pt.depths, int32(pt.eq.Len()))
	}
	switch {
	case ev.p != nil:
		p := ev.p
		if p.done || !p.blocked || ev.token != p.token {
			return nil, true // stale wakeup
		}
		p.token++ // invalidate other pending wakeups for p
		return p, true
	case ev.fn != nil:
		ev.fn()
	case ev.fn1 != nil:
		ev.fn1(ev.arg)
	}
	return nil, true
}

// dispatch runs partition pt's event loop up to the next valid process
// wakeup and returns that process. A blocking process calling it may get
// itself back (its own wakeup was next: it keeps running, no switch at
// all); any other process is for the home loop to resume. nil ends the
// window.
func (pt *partition) dispatch() *Proc {
	for {
		if p, processed := pt.step(); p != nil || !processed {
			return p
		}
	}
}

// drive is the home loop of partition pt's window: it resumes each process
// dispatch names, until dispatch names none. A resumed process runs until it
// blocks and yields back the process its own dispatch named, or until its
// body returns — finished or dormant — and the home loop dispatches again.
// A panic in a process body propagates out of next, and so out of drive.
func (pt *partition) drive() {
	p := pt.dispatch()
	for p != nil {
		if p.co == nil {
			p.take()
		}
		q, ok := p.next()
		if !ok || q == wentDormant {
			q = pt.dispatch()
		}
		p = q
	}
}

// horizonBound converts the horizon into an exclusive window bound.
func (k *Kernel) horizonBound() Time {
	if k.stopAt == 0 {
		return infTime
	}
	return k.stopAt + 1
}

// Run processes events until the queue drains or the horizon is reached.
// It returns a *DeadlockError if live processes remain blocked with nothing
// scheduled, and nil otherwise.
//
// Run's goroutine coordinates the run in rounds — openRound, the windows on
// the worker pool (pool.runRound), closeRound — whatever the partition and
// worker counts. The pool has max(1, min(SetRunWorkers, partitions,
// GOMAXPROCS)) members, Run's goroutine among them. A single-partition
// kernel is the classic serial event loop: one heap, one clock, one round
// whose window runs to the horizon.
//
// A panic in a process body or an event callback surfaces from Run on the
// caller's goroutine, at every worker count: the first panic of a round in
// partition order, once the round's other windows are done. Every pool
// helper has exited by the time Run returns or panics. Shutdown still reaps
// the remaining processes afterwards.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Kernel.Run is not reentrant")
	}
	k.running = true
	events := k.Events()
	defer func() {
		k.running = false
		if m := k.metrics; m != nil {
			m.Events.Add(int64(k.Events() - events))
		}
	}()

	if m := k.metrics; m != nil {
		m.Partitions.Set(float64(len(k.parts)))
	}
	k.err = nil
	k.members = max(1, min(k.workers, len(k.parts), runtime.GOMAXPROCS(0)))
	k.runPool()
	if k.err == nil {
		// Final flush: barrier hooks see the fully-drained state exactly
		// once more, whatever path ended the run.
		for _, fn := range k.barriers {
			fn()
		}
	}
	return k.err
}

// runPool is the coordinator loop: Run's goroutine starts the pool's
// helpers, then opens each round, runs its windows with them, and closes
// it. The helpers live until the run ends, however it ends: the deferred
// stop waits for every one of them to exit, so none outlives Run — not even
// when a round's fault is raised again here.
func (k *Kernel) runPool() {
	pl := newPool(k)
	defer pl.stop()
	for k.openRound() {
		pl.runRound()
		if k.intr.Load() {
			k.err = ErrCanceled
			return
		}
		k.closeRound()
	}
}

// openRound opens the next window. It first runs every global event that
// precedes all partition heads, then fixes the window bound and selects the
// partitions whose heads fall inside it. It returns false when the run is
// over, with the outcome in k.err.
func (k *Kernel) openRound() bool {
	hcap := k.horizonBound()
	partitioned := len(k.parts) > 1
	for {
		if k.intr.Load() {
			k.err = ErrCanceled
			return false
		}
		// min1: the smallest partition head — the global simulation front.
		min1 := infTime
		for _, pt := range k.parts {
			if pt.eq.Len() == 0 {
				continue
			}
			if h := pt.eq.peek().at; h < min1 {
				min1 = h
			}
		}
		G := infTime
		if k.gq.Len() > 0 {
			G = k.gq.peek().at
		}
		if min1 == infTime && G == infTime {
			k.finish(k.deadlockCheck()) // drained
			return false
		}
		if G <= min1 {
			// Every partition has consumed all events strictly before G:
			// the global event observes a deterministic quiesced state.
			if G >= hcap {
				k.finish(nil) // beyond horizon; events remain
				return false
			}
			ev := k.gq.pop()
			if ev.at < k.gnow {
				panic("sim: time reversal (global)")
			}
			k.gnow = ev.at
			k.gevents++
			switch {
			case ev.fn != nil:
				ev.fn()
			case ev.fn1 != nil:
				ev.fn1(ev.arg)
			}
			continue
		}
		if min1 >= hcap {
			k.finish(nil) // horizon reached; events remain
			return false
		}
		// This round's window is [min1, min1 + lookahead), further capped
		// by the next global event and the horizon — ONE window shared by
		// every partition, not "min over the other partitions' heads".
		// The per-partition variant is unsound: an event staged during a
		// round can re-activate an idle partition mid-round (a request
		// landing in a blocked partition, whose reply then travels back),
		// and a partition running ahead on a wider private window would
		// observe that reply in its past. A window no wider than the
		// lookahead is immune by construction: every event generated
		// during the round — however many cross-partition hops produced
		// it — lies at or beyond the window's end. A partition whose head
		// is at or beyond the window sits the round out: a lookahead
		// stall. A serial kernel has no lookahead to respect: its one
		// window runs to the horizon.
		bound := min(G, hcap)
		if partitioned {
			bound = min(bound, min1+k.lookahead)
		}
		k.runnable = k.runnable[:0]
		stalled := 0
		for _, pt := range k.parts {
			if pt.eq.Len() == 0 {
				continue
			}
			if pt.eq.peek().at < bound {
				pt.bound = bound
				pt.open = true
				k.runnable = append(k.runnable, pt)
			} else {
				stalled++
			}
		}
		if len(k.runnable) == 0 {
			// Unreachable: the partition holding min1 is always runnable —
			// G > min1 and hcap > min1 hold here, and so does lookahead > 0
			// when it bounds the window.
			panic("sim: lookahead deadlock — no runnable partition")
		}
		if m := k.metrics; m != nil && partitioned {
			m.Rounds.Inc()
			m.LookaheadStalls.Add(int64(stalled))
		}
		return true
	}
}

// closeRound observes the round's queue-depth samples, merges the
// cross-partition events staged during the round and, on a partitioned
// kernel, runs the barrier hooks. Only the partitions that ran can have
// sampled or staged anything (CrossAt1 refuses outside a window), so both
// visit just those, in partition order then sampling or staging order — a
// worker-count-independent total order. Each destination assigns its own
// fresh sequence numbers.
func (k *Kernel) closeRound() {
	for _, pt := range k.runnable {
		pt.open = false
		if m := k.metrics; m != nil {
			for _, d := range pt.depths {
				m.QueueDepth.Observe(float64(d))
			}
			pt.depths = pt.depths[:0]
		}
		for i := range pt.outbox {
			x := &pt.outbox[i]
			d := k.parts[x.dst]
			if x.at < d.now {
				panic(fmt.Sprintf("sim: lookahead violation — cross-partition event %d→%d at t=%d is in destination's past (now=%d, lookahead=%d)",
					pt.id, x.dst, x.at, d.now, k.lookahead))
			}
			d.seq++
			d.eq.push(event{at: x.at, seq: d.seq, fn1: x.fn1, arg: x.arg})
			*x = xev{}
		}
		pt.outbox = pt.outbox[:0]
	}
	if len(k.parts) == 1 {
		return // a serial kernel's hooks fire only for the final flush
	}
	for _, fn := range k.barriers {
		fn()
	}
}

// finish records the run's outcome and advances the global clock to the
// completion time, so post-run Now() on a partitioned kernel reports when
// the simulation ended.
func (k *Kernel) finish(err error) {
	for _, pt := range k.parts {
		if pt.now > k.gnow {
			k.gnow = pt.now
		}
	}
	k.err = err
}

// spinBudget is how long an idle pool member polls before it parks: a
// helper waiting for the next round, or the coordinator waiting for the
// round's helpers to leave it. A partitioned paper-scale round lasts tens of
// microseconds, so a member that polls this long usually sees the next
// round without a thread wakeup; a member that does not has met a pause
// long enough that parking adds little to it. Bounded polling before
// blocking is the classic competitive compromise between the two
// (Karlin et al. 1991).
const spinBudget = 50 * time.Microsecond

// pool runs a kernel's windows for the length of one Run. Its members are
// Run's goroutine — the coordinator, which also runs windows — and
// k.members-1 helper goroutines, none for a one-member pool. A helper learns of a round from the
// epoch counter and claims the round's partitions from the shared span, as
// the coordinator does; whoever claims a window runs it. Work distribution
// is irrelevant to the result: partitions share nothing within a round.
//
// The epoch is odd while a round is open to helpers. A helper joins round
// e by counting itself inside and then seeing the epoch still at e; the
// coordinator closes the round by advancing the epoch once every window is
// claimed, and then waits until no helper is inside. Each side writes its
// own atomic before reading the other's, so either the helper sees the
// round closed and claims nothing, or the coordinator sees it inside and
// waits for it: a helper never reads the round's state after the
// coordinator starts changing it, and a slow helper never holds up a round
// it did not join.
type pool struct {
	k       *Kernel
	epoch   atomic.Uint64 // odd while a round is open to helpers
	span    atomic.Uint64 // unclaimed windows: k.runnable[lo:hi], hi in the top 32 bits
	inside  atomic.Int32  // helpers that joined the current round and have not left it
	halt    atomic.Bool   // the run is over: helpers exit
	exited  sync.WaitGroup
	mu      sync.Mutex   // held to park on round or drained, and to signal them
	round   sync.Cond    // helpers park here for the next round
	drained sync.Cond    // the coordinator parks here for inside to reach 0
	idle    atomic.Int32 // helpers parked on round
	waiting atomic.Int32 // coordinators parked on drained: 0 or 1
}

// newPool starts the pool's helpers.
func newPool(k *Kernel) *pool {
	pl := &pool{k: k}
	pl.round.L = &pl.mu
	pl.drained.L = &pl.mu
	pl.exited.Add(k.members - 1)
	for i := 1; i < k.members; i++ {
		go pl.help()
	}
	return pl
}

// stop ends the pool and returns once every helper has exited. It runs
// between rounds, when no helper is inside one.
func (pl *pool) stop() {
	pl.halt.Store(true)
	pl.notify(&pl.round, &pl.idle)
	pl.exited.Wait()
}

// runRound executes the open round's windows: inline when only one
// partition is runnable, and otherwise on every pool member that joins.
// Members recover a window's panic and keep claiming; once the round is
// done, the first panic in partition order is raised again here, on Run's
// goroutine.
func (pl *pool) runRound() {
	k := pl.k
	if len(k.runnable) == 1 {
		k.runnable[0].drive()
		return
	}
	pl.span.Store(uint64(len(k.runnable)) << 32)
	pl.epoch.Add(1) // open
	pl.notify(&pl.round, &pl.idle)
	pl.claim(true)
	pl.epoch.Add(1) // closed: every window is claimed
	pl.await(&pl.drained, &pl.waiting, func() bool { return pl.inside.Load() == 0 })
	for _, pt := range k.runnable {
		if pt.fault != nil {
			panic(pt.fault)
		}
	}
}

// help is a helper's life: wait for a round it has not seen, join it if it
// is still open, claim windows until none is left, leave.
func (pl *pool) help() {
	defer pl.exited.Done()
	var seen uint64
	for {
		pl.await(&pl.round, &pl.idle, func() bool {
			e := pl.epoch.Load()
			return pl.halt.Load() || e&1 == 1 && e != seen
		})
		if pl.halt.Load() {
			return
		}
		seen = pl.epoch.Load()
		pl.inside.Add(1)
		if pl.epoch.Load() == seen && seen&1 == 1 {
			pl.claim(false)
		}
		if pl.inside.Add(-1) == 0 {
			pl.notify(&pl.drained, &pl.waiting)
		}
	}
}

// claim runs the open round's unclaimed windows until none is left: from
// the front of k.runnable for the coordinator, from the back for helpers.
// Claiming from two ends keeps a partition that stays runnable on the same
// member from round to round, and its heap, processes and coroutine stacks
// in that core's cache; a cursor the members share from one end hands
// neighbouring windows to alternate members and moves them every round.
func (pl *pool) claim(front bool) {
	runnable := pl.k.runnable
	for {
		v := pl.span.Load()
		lo, hi := uint32(v), uint32(v>>32)
		if lo >= hi {
			return
		}
		j, rest := lo, v+1
		if !front {
			j, rest = hi-1, v-1<<32
		}
		if pl.span.CompareAndSwap(v, rest) {
			runWindow(runnable[j])
		}
	}
}

// await returns once ready holds. It polls for spinBudget, yielding the
// processor between polls, and then parks on c, counted in parked.
// Whoever makes ready true calls notify afterwards: it reads parked after
// its own write, and the waiter counts itself before its last check, so the
// wakeup cannot be lost.
func (pl *pool) await(c *sync.Cond, parked *atomic.Int32, ready func() bool) {
	for start := time.Now(); time.Since(start) < spinBudget; runtime.Gosched() {
		if ready() {
			return
		}
	}
	pl.mu.Lock()
	parked.Add(1)
	for !ready() {
		c.Wait()
	}
	parked.Add(-1)
	pl.mu.Unlock()
}

// notify wakes the members parked on c, if any.
func (pl *pool) notify(c *sync.Cond, parked *atomic.Int32) {
	if parked.Load() > 0 {
		pl.mu.Lock()
		c.Broadcast()
		pl.mu.Unlock()
	}
}

// runWindow runs partition pt's window as a pool member's home loop,
// recording a panic in pt.fault instead of letting it kill the process.
func runWindow(pt *partition) {
	defer func() { pt.fault = recover() }()
	pt.drive()
}

// deadlockCheck reports blocked live processes after the queues drained.
func (k *Kernel) deadlockCheck() error {
	live := 0
	for _, pt := range k.parts {
		live += pt.live
	}
	if live == 0 {
		return nil
	}
	var blocked []string
	var at Time
	for _, pt := range k.parts {
		if pt.now > at {
			at = pt.now
		}
		for _, p := range pt.procs {
			if !p.done && !p.daemon {
				blocked = append(blocked, p.Name()+": "+p.state())
			}
		}
	}
	return &DeadlockError{Now: at, Blocked: blocked}
}
