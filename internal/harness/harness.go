// Package harness assembles one simulation run: Run wires a workload, the
// calibrated cluster, a protocol engine, a checkpoint schedule, observers,
// and an optional failure injector together (Spec → Result), and Restart
// replays a whole-application restart from the run's latest checkpoint.
// Every scenario cell (internal/scenario) and every figure of the paper
// (internal/paper) is one or more of these runs.
package harness

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/group"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/mlog"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Mode selects the checkpoint protocol configuration, using the paper's
// notation.
type Mode string

// The paper's five configurations, plus None (no checkpoint engine at all —
// the baseline for tracing passes and overhead comparisons).
const (
	GP   Mode = "GP"   // trace-assisted group formation
	GP1  Mode = "GP1"  // one process per group (uncoordinated + logging)
	GP4  Mode = "GP4"  // four ad-hoc groups of sequential ranks
	NORM Mode = "NORM" // one global group (LAM/MPI coordinated)
	VCL  Mode = "VCL"  // MPICH-VCL (Chandy–Lamport, remote servers)
	None Mode = "NONE" // no protocol engine: the bare application
)

// Schedule describes when checkpoints are requested.
type Schedule struct {
	At       sim.Time // single checkpoint at this time (0 = none)
	Start    sim.Time // first periodic checkpoint (0 = Interval)
	Interval sim.Time // periodic interval (0 = no periodic checkpoints)
	MaxCount int      // cap on periodic checkpoints (0 = unlimited)
}

// Spec is one experiment run.
type Spec struct {
	WL      workload.Workload
	Mode    Mode
	Seed    int64
	Cluster cluster.Config // zero value = cluster.Gideon()
	Sched   Schedule

	// RemoteServers > 0 stores checkpoint images on shared remote
	// servers (the paper's Section 5.3 setup) instead of local disk.
	RemoteServers int
	ServerNIC     float64 // default: Fast Ethernet (12.5 MB/s)
	ServerDisk    float64 // default: 40 MB/s
	// RemoteAsync selects NFS-style write-behind semantics (the LAM/MPI
	// configuration in Section 5.3); VCL always streams synchronously.
	RemoteAsync bool

	// Observers stack arbitrary per-run instrumentation onto the run:
	// each may install a tracer (fanned out through a trace.Tee when
	// several do), register engine hooks, and publish into the Result.
	// TraceObserver, CommObserver, and InspectObserver cover the classic
	// needs; user-defined observers compose with them. Observers are
	// per-run objects — never share one across concurrent specs.
	Observers []Observer

	// GroupMax bounds GP's trace-derived group size (0 = ⌈√n⌉).
	GroupMax int

	// Formation, when non-nil, overrides GP's trace-derived group
	// formation (the paper's "subsequent executions may use the same
	// group definition file"). Ignored by the other modes.
	Formation *group.Formation

	// Horizon caps virtual time (0 = unlimited). A run whose application
	// has not finished by the horizon fails with an error — the liveness
	// backstop the invariant oracle needs, because a dropped delivery
	// under periodic checkpointing starves a receiver forever without
	// ever draining the event queue (the checkpoint schedule keeps it
	// alive), which a deadlock detector alone cannot see.
	Horizon sim.Time

	// FailureProc, when non-nil, arms a stochastic failure injector on
	// the run: failures arrive as a renewal process, strike uniformly
	// drawn nodes, and each is evaluated at its instant under group vs.
	// global restart (Result.Failures). Injection is observational — it
	// never perturbs the simulation — and requires a group-based mode
	// (VCL keeps no per-rank sender logs to evaluate against).
	FailureProc failure.Process
	// FailureSeed seeds the failure process independently of the run
	// (0 derives a seed from Seed).
	FailureSeed int64
	// MaxFailures caps injected failures (0 = failure.DefaultMaxFailures).
	MaxFailures int

	// RunWorkers bounds how many kernel partitions of this one run execute
	// concurrently (0 or 1 = serial). The run's output is byte-identical
	// at every setting — worker count changes wall-clock time only. It
	// takes effect only when the run is actually partitioned; see
	// PartitionMinRanks.
	RunWorkers int

	// PartitionMinRanks sets the minimum world size at which the kernel is
	// partitioned by checkpoint group (0 = DefaultPartitionMinRanks;
	// negative = never partition). Partitioning changes the simulated
	// interleaving slightly (receiver NICs book transfers in arrival-time
	// rather than send-time order across partition edges), so the
	// threshold — not the worker count — is part of a run's identity.
	PartitionMinRanks int
}

// DefaultPartitionMinRanks is the world size at which Run starts
// partitioning the kernel by checkpoint group. Below it, coordination
// overhead outweighs the parallelism and runs stay on the classic serial
// kernel, byte-identical to historical output.
const DefaultPartitionMinRanks = 1024

// MaxPartitions caps how many sub-kernels a run is split into. More
// partitions than cores only adds lookahead-window bookkeeping.
const MaxPartitions = 64

// Result collects everything a run produced.
type Result struct {
	Spec      Spec
	N         int
	Name      string // engine name actually used
	ExecTime  sim.Time
	Records   []ckpt.Record
	Snapshots []*ckpt.Snapshot
	Logs      []*mlog.Set
	Formation group.Formation
	Epochs    int
	Spans     []core.Span
	Trace     []trace.Record
	Comm      *trace.CommMatrix
	Events    uint64

	// Failures holds the injected-failure evaluations, in arrival order,
	// when the spec armed a FailureProc.
	Failures []failure.Outcome

	// Invariant-oracle introspection, populated by an InspectObserver.
	MsgStats   mpi.Stats
	Flows      []mpi.PairFlow
	QueuedApp  int
	QueuedCtrl int
	Cuts       []core.Cut

	// Metrics is the run's final metrics snapshot, populated by a
	// MetricsObserver (nil otherwise).
	Metrics *metrics.Snapshot

	// Jobs is the cluster-level job-stream result when the cell simulated
	// a multi-job cluster (scenario jobs specs) rather than one
	// application; the scalar fields above then aggregate the stream
	// (ExecTime = makespan, Failures = all inner runs' outcomes).
	Jobs *jobs.Result
}

func zeroIsGideon(c cluster.Config) cluster.Config {
	if c == (cluster.Config{}) {
		return cluster.Gideon()
	}
	return c
}

func (s *Spec) storageDefaults() {
	if s.ServerNIC == 0 {
		s.ServerNIC = 12.5e6
	}
	if s.ServerDisk == 0 {
		s.ServerDisk = 40e6
	}
}

// validModes is the mode set Run accepts, checked up front so every
// rejection wraps ErrBadSpec.
var validModes = map[Mode]bool{GP: true, GP1: true, GP4: true, NORM: true, VCL: true, None: true}

// validate rejects a spec the engines cannot honor. Every error wraps
// ErrBadSpec and names the offending field.
func (s *Spec) validate() error {
	switch {
	case s.WL == nil:
		return fmt.Errorf("harness: %w: no workload", ErrBadSpec)
	case !validModes[s.Mode]:
		return fmt.Errorf("harness: %w: unknown mode %q", ErrBadSpec, s.Mode)
	case s.GroupMax < 0:
		return fmt.Errorf("harness: %w: negative GroupMax %d", ErrBadSpec, s.GroupMax)
	case s.RemoteServers < 0:
		return fmt.Errorf("harness: %w: negative RemoteServers %d", ErrBadSpec, s.RemoteServers)
	case s.Horizon < 0:
		return fmt.Errorf("harness: %w: negative Horizon %v", ErrBadSpec, s.Horizon)
	case s.MaxFailures < 0:
		return fmt.Errorf("harness: %w: negative MaxFailures %d", ErrBadSpec, s.MaxFailures)
	case s.RunWorkers < 0:
		return fmt.Errorf("harness: %w: negative RunWorkers %d", ErrBadSpec, s.RunWorkers)
	case s.Sched.At < 0 || s.Sched.Start < 0 || s.Sched.Interval < 0 || s.Sched.MaxCount < 0:
		return fmt.Errorf("harness: %w: negative checkpoint schedule %+v", ErrBadSpec, s.Sched)
	case s.FailureProc != nil && (s.Mode == VCL || s.Mode == None):
		return fmt.Errorf("harness: %w: %s/%s: failure injection requires a group-based mode",
			ErrBadSpec, s.WL.Name(), s.Mode)
	case s.Formation != nil && s.Mode != GP:
		return fmt.Errorf("harness: %w: a formation override requires mode GP, not %s", ErrBadSpec, s.Mode)
	case (s.Sched.At > 0 || s.Sched.Interval > 0) && s.Mode == None:
		return fmt.Errorf("harness: %w: mode NONE runs no checkpoint engine to schedule", ErrBadSpec)
	}
	if s.Formation != nil {
		if err := s.Formation.Validate(); err != nil {
			return fmt.Errorf("harness: %w: formation override: %v", ErrBadSpec, err)
		}
	}
	// A process that can reject its own parameters gets the chance now: a
	// Weibull with shape ≤ 0 or a modulation curve with no intensity must
	// fail the spec, not produce garbage gaps mid-run.
	if v, ok := s.FailureProc.(failure.Validator); ok && s.FailureProc != nil {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("harness: %w: failure process: %v", ErrBadSpec, err)
		}
	}
	return nil
}

// newWorld builds one simulated world: kernel, calibrated cluster, MPI
// layer. Shared by Run and the GP tracing pass so the two can never drift.
func newWorld(seed int64, n int, cfg cluster.Config) (*sim.Kernel, *mpi.World) {
	k := sim.NewKernel(seed)
	c := cluster.New(k, n, cfg)
	return k, mpi.NewWorld(k, c, n)
}

// Run executes one experiment run to completion. Canceling ctx parks the
// kernel between events and returns an error wrapping ErrCanceled; on every
// path — completion, cancellation, horizon, deadlock — all simulation
// goroutines are unwound before Run returns.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec.Cluster = zeroIsGideon(spec.Cluster)
	spec.storageDefaults()
	wl := spec.WL
	n := wl.Procs()

	// GP's tracing pass runs on its own kernel before the measured run
	// exists, so resolve the formation first: it honors ctx like the
	// measured run does, and its errors are spec errors, not run errors.
	var f group.Formation
	if spec.Mode != None {
		var err error
		if f, err = formationFor(ctx, spec); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", wl.Name(), spec.Mode, ErrCanceled)
	}

	k, w := newWorld(spec.Seed, n, spec.Cluster)
	defer k.Shutdown()
	if spec.Horizon > 0 {
		k.SetHorizon(spec.Horizon)
	}
	stop := context.AfterFunc(ctx, k.Interrupt)
	defer stop()

	env := &RunEnv{World: w}
	var tracers trace.Tee
	for _, obs := range spec.Observers {
		if tr := obs.BeforeRun(env); tr != nil {
			tracers = append(tracers, tr)
		}
	}
	switch len(tracers) {
	case 0:
	case 1:
		w.Tracer = tracers[0]
	default:
		w.Tracer = tracers
	}

	// Intra-run parallelism: at scale, partition the kernel by checkpoint
	// group with the network latency as conservative lookahead. Eligibility
	// is a pure function of the spec, never of worker count, so output is
	// reproducible; see PartitionMinRanks for why small runs stay serial.
	// Remote storage shares server resources across all ranks, and VCL/None
	// run no group engine — both stay serial. Tracer-armed runs keep the
	// partitioned schedule but execute windows one at a time: tracers are
	// unsynchronized, and observation must not change the table.
	partitionRun(spec, f, n, w, len(tracers) > 0)

	var store cluster.Storage = cluster.LocalDisk{}
	if spec.RemoteServers > 0 {
		rs := cluster.NewRemoteStore(w.C, spec.RemoteServers, spec.ServerNIC, spec.ServerDisk)
		if spec.RemoteAsync {
			store = cluster.NewAsyncRemote(rs, 0)
		} else {
			store = rs
		}
	}

	var proto protocol
	var engine *core.Engine
	switch spec.Mode {
	case None:
	case VCL:
		proto = core.NewVCL(w, store, wl.ImageBytes)
	default:
		cfg := core.DefaultConfig(f, wl.ImageBytes)
		cfg.Store = store
		cfg.OnCut = fanOut(env.onCut)
		engine = core.NewEngine(w, cfg)
		proto = engine
	}
	if proto != nil {
		proto.OnRecord(fanOut(env.onRecord))
		if spec.Sched.At > 0 {
			proto.ScheduleAt(spec.Sched.At)
		}
		if spec.Sched.Interval > 0 {
			start := spec.Sched.Start
			if start == 0 {
				start = spec.Sched.Interval
			}
			proto.SchedulePeriodic(start, spec.Sched.Interval, spec.Sched.MaxCount)
		}
	}
	var inj *failure.Injector
	if spec.FailureProc != nil { // validate admits it under the group engine only
		seed := spec.FailureSeed
		if seed == 0 {
			seed = spec.Seed ^ 0x5DEECE66D // decorrelate from the kernel stream
		}
		inj = failure.NewInjector(w, f, engine, spec.FailureProc, seed, spec.MaxFailures)
		inj.OnOutcome = fanOut(env.onFailure)
		inj.Arm()
	}
	w.Launch(wl.Body)
	if err := k.Run(); err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			err = ErrCanceled
		}
		return nil, fmt.Errorf("harness: %s/%s: %w", wl.Name(), spec.Mode, err)
	}

	res := &Result{Spec: spec, N: n, Name: "none"}
	if proto != nil {
		res.Name = proto.Name()
		res.Records = proto.Records()
		res.Snapshots = proto.Snapshots()
		res.Formation = f
		res.Epochs = proto.Epochs()
		res.Spans = proto.EpochSpans()
	}
	if engine != nil {
		res.Logs = engine.LogSets()
	}
	if inj != nil {
		res.Failures = inj.Outcomes()
	}

	if spec.Horizon > 0 {
		for _, r := range w.Ranks {
			if !r.Finished {
				return nil, fmt.Errorf("harness: %s/%s: rank %d still blocked at horizon %v — deadlock, livelock, or lost message: %w",
					wl.Name(), spec.Mode, r.ID, spec.Horizon, ErrHorizon)
			}
		}
	}
	for _, r := range w.Ranks {
		if r.FinishTime > res.ExecTime {
			res.ExecTime = r.FinishTime
		}
	}
	res.Events = k.Events()
	for _, obs := range spec.Observers {
		obs.AfterRun(res)
	}
	return res, nil
}

// partitionRun decides whether the run is partitioned and, if so, installs
// the plan on the world (which splits its kernel). Must run after the world
// is built and before any process is spawned.
func partitionRun(spec Spec, f group.Formation, n int, w *mpi.World, traced bool) {
	minRanks := spec.PartitionMinRanks
	if minRanks == 0 {
		minRanks = DefaultPartitionMinRanks
	}
	if minRanks < 0 || n < minRanks ||
		spec.Mode == VCL || spec.Mode == None ||
		spec.RemoteServers > 0 || spec.Cluster.Latency <= 0 {
		return
	}
	partOf, nparts := core.PartitionPlan(f, MaxPartitions)
	if nparts <= 1 {
		return
	}
	w.SetPartitions(partOf, nparts)
	workers := spec.RunWorkers
	if traced {
		workers = 1
	}
	w.K.SetRunWorkers(workers)
}

// protocol is the checkpoint protocol Run drives: core.Engine for the group
// modes, core.VCL for the baseline.
type protocol interface {
	Name() string
	OnRecord(fn func(ckpt.Record))
	ScheduleAt(t sim.Time)
	SchedulePeriodic(start, interval sim.Time, maxCount int)
	Records() []ckpt.Record
	Snapshots() []*ckpt.Snapshot
	Epochs() int
	EpochSpans() []core.Span
}

// Restart simulates a whole-application restart from the run's latest
// checkpoint (the paper's restart measurements).
func Restart(res *Result, seed int64) (core.RestartOutcome, error) {
	spec := res.Spec
	return core.SimulateRestart(core.RestartSpec{
		N:             res.N,
		ClusterCfg:    zeroIsGideon(spec.Cluster),
		Formation:     res.Formation,
		Snapshots:     res.Snapshots,
		Logs:          res.Logs,
		Seed:          seed,
		RemoteServers: spec.RemoteServers,
		ServerNIC:     spec.ServerNIC,
		ServerDisk:    spec.ServerDisk,
	})
}

// formationFor resolves the group formation for a checkpointing mode (VCL's
// is the global one its checkpoints coordinate). GP runs
// (and caches) a tracing pass of the workload, then applies the paper's
// Algorithm 2 — the cmd/gbtrace → cmd/gbgroup pipeline in-process — unless
// the spec carries a formation override (a group definition file).
func formationFor(ctx context.Context, spec Spec) (group.Formation, error) {
	n := spec.WL.Procs()
	switch spec.Mode {
	case NORM, VCL:
		return group.Global(n), nil
	case GP1:
		return group.Singletons(n), nil
	case GP4:
		return group.Fixed(n, 4), nil
	case GP:
		if spec.Formation != nil {
			return *spec.Formation, nil
		}
		return tracedFormation(ctx, spec)
	default:
		return group.Formation{}, fmt.Errorf("harness: %w: unknown mode %q", ErrBadSpec, spec.Mode)
	}
}

var formationCache runner.Memo[group.Formation]

// ResetCaches clears the memoized tracing formations. The benchmarks call
// it so every iteration measures real work.
func ResetCaches() { formationCache.Reset() }

// tracedFormation runs the workload once with the streaming CommMatrix
// tracer (no checkpoints) and feeds the matrix to Algorithm 2, so the
// tracing pass's memory is bounded by communicating pairs rather than
// message count. Results are cached per workload configuration; concurrent
// runs that need the same formation share one tracing pass, while distinct
// configurations trace in parallel.
//
// The pass honors ctx: the tracing kernel is interruptible like the
// measured run's. A shared in-flight build canceled by one caller can fail
// a concurrent waiter with ErrCanceled even though the waiter's own ctx is
// live — the canceled entry is dropped from the cache, so a retry rebuilds
// it.
func tracedFormation(ctx context.Context, spec Spec) (group.Formation, error) {
	n := spec.WL.Procs()
	max := spec.GroupMax
	if max <= 0 {
		max = group.DefaultMaxSize(n)
	}
	// The key must pin everything the tracing pass depends on: the
	// workload's full communication configuration (Name encodes each
	// skeleton's knobs) and the cluster calibration — scenario specs can
	// vary both, and two configurations must never share a formation.
	key := fmt.Sprintf("%s/n%d/G%d/%+v", spec.WL.Name(), n, max, zeroIsGideon(spec.Cluster))
	f, err := formationCache.Get(key, func() (group.Formation, error) {
		cfg := zeroIsGideon(spec.Cluster)
		cfg.JitterFrac = 0
		cfg.DaemonEvery = 0
		k, w := newWorld(977, n, cfg)
		defer k.Shutdown()
		stop := context.AfterFunc(ctx, k.Interrupt)
		defer stop()
		m := trace.NewCommMatrix()
		w.Tracer = m
		w.Launch(spec.WL.Body)
		if err := k.Run(); err != nil {
			if errors.Is(err, sim.ErrCanceled) {
				return group.Formation{}, fmt.Errorf("harness: tracing pass for %s: %w", key, ErrCanceled)
			}
			return group.Formation{}, fmt.Errorf("harness: tracing pass for %s: %w", key, err)
		}
		f := group.FromMatrix(m, n, max)
		if err := f.Validate(); err != nil {
			return group.Formation{}, fmt.Errorf("harness: formation for %s: %w", key, err)
		}
		return f, nil
	})
	if err != nil && errors.Is(err, ErrCanceled) {
		// A canceled pass must not poison the cache for later callers.
		formationCache.Forget(key)
	}
	return f, err
}

// AggregateCoordination sums per-rank checkpoint durations excluding the
// image-write stage — the paper's Figure 1 metric ("coordination time is
// estimated by excluding the time spent in creating the actual checkpoint
// image").
func AggregateCoordination(records []ckpt.Record) sim.Time {
	var t sim.Time
	for _, r := range records {
		t += r.Duration() - r.Stages[ckpt.StageWrite]
	}
	return t
}

// MeanCheckpointTime averages per-rank per-epoch checkpoint durations — the
// paper's Figure 14 metric.
func MeanCheckpointTime(records []ckpt.Record) sim.Time {
	if len(records) == 0 {
		return 0
	}
	var t sim.Time
	for _, r := range records {
		t += r.Duration()
	}
	return t / sim.Time(len(records))
}
