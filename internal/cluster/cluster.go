// Package cluster models the hardware substrate of a message-passing
// cluster: compute nodes with a flop rate, local disk and network interfaces,
// a switched network with per-NIC serialization and a fixed latency, and
// checkpoint storage targets (local disk or shared remote servers).
//
// The calibration defaults mirror the paper's testbed, the HKU Gideon 300
// cluster: Pentium 4 2.0 GHz nodes, 512 MB memory, Fast Ethernet, local IDE
// disks, and 4 dedicated checkpoint servers for the MPICH-VCL experiments.
package cluster

import (
	"math/rand"
	"strings"

	"repro/internal/sim"
)

// Config describes the hardware model.
type Config struct {
	FlopRate    float64  // sustained flops/second per node
	MemBytes    int64    // physical memory per node
	NICRate     float64  // NIC bandwidth, bytes/second (each direction)
	Latency     sim.Time // one-way message latency
	MsgOverhead int64    // per-message protocol overhead bytes (headers)
	DiskWrite   float64  // local disk write bandwidth, bytes/second
	DiskRead    float64  // local disk read bandwidth, bytes/second

	// Jitter models OS noise. Each compute hold is stretched by a uniform
	// factor in [1, 1+JitterFrac]. Independently, rare "daemon delays"
	// (cron jobs, kernel housekeeping — the paper's "unexpected delays")
	// strike each node as a Poisson process with mean inter-arrival
	// DaemonEvery and magnitude uniform in [DaemonMin, DaemonMax].
	JitterFrac  float64
	DaemonEvery sim.Time
	DaemonMin   sim.Time
	DaemonMax   sim.Time
}

// Gideon returns the calibration used throughout the reproduction:
// ~1 Gflop/s sustained per process (HPL-efficiency of a 2 GHz P4),
// 100 Mb/s Fast Ethernet (12.5 MB/s) with ~70 µs latency, and ~40/55 MB/s
// local disk write/read.
func Gideon() Config {
	return Config{
		FlopRate:    1.0e9,
		MemBytes:    512 << 20,
		NICRate:     12.5e6,
		Latency:     70 * sim.Microsecond,
		MsgOverhead: 60,
		DiskWrite:   40e6,
		DiskRead:    55e6,
		JitterFrac:  0.02,
		DaemonEvery: 120 * sim.Second,
		DaemonMin:   200 * sim.Millisecond,
		DaemonMax:   2500 * sim.Millisecond,
	}
}

// Modern returns a present-day commodity-cluster calibration, the contrast
// point to the paper's 2002-era testbed: multi-Gflop sustained per process,
// 10 GbE (1.25 GB/s) with ~10 µs latency, and NVMe-class local storage.
// Faster networks shrink coordination and image-write costs, which is
// exactly the regime where the paper predicts larger groups pay off; OS
// noise is also quieter (shorter, rarer daemon delays) than on Gideon.
func Modern() Config {
	return Config{
		FlopRate:    20e9,
		MemBytes:    64 << 30,
		NICRate:     1.25e9,
		Latency:     10 * sim.Microsecond,
		MsgOverhead: 60,
		DiskWrite:   2.5e9,
		DiskRead:    3.5e9,
		JitterFrac:  0.01,
		DaemonEvery: 300 * sim.Second,
		DaemonMin:   50 * sim.Millisecond,
		DaemonMax:   500 * sim.Millisecond,
	}
}

// Profiles lists the named calibrations Named resolves, in display order.
func Profiles() []string { return []string{"gideon", "modern"} }

// Named resolves a calibration by name ("gideon", "modern"), reporting
// whether the name is known.
func Named(name string) (Config, bool) {
	switch strings.ToLower(name) {
	case "gideon":
		return Gideon(), true
	case "modern":
		return Modern(), true
	}
	return Config{}, false
}

// Node is one compute node. Each node runs at most one MPI process (as in
// the paper's experiments), and draws its OS noise (compute jitter and
// daemon delays) from a stream of its own.
type Node struct {
	ID     int
	Cfg    *Config
	NICOut sim.Resource
	NICIn  sim.Resource
	Disk   sim.Resource

	k         *sim.Kernel
	noiseRand *rand.Rand
	nextNoise sim.Time
	noiseAmt  sim.Time
}

// Cluster is a set of nodes plus the network joining them.
type Cluster struct {
	K     *sim.Kernel
	Cfg   Config
	Nodes []*Node
}

// New builds a cluster of n nodes under kernel k. Each node gets an
// independent deterministic noise stream seeded from the kernel's RNG. The
// streams come from sim.NewRand, so a node that draws fewer than 274 values
// in a run, as most do, never holds math/rand's 4.9 KB register.
func New(k *sim.Kernel, n int, cfg Config) *Cluster {
	c := &Cluster{K: k, Cfg: cfg}
	for i := 0; i < n; i++ {
		nd := &Node{
			ID:     i,
			Cfg:    &c.Cfg,
			NICOut: sim.NewResource(sim.L("nic-out", i), cfg.NICRate),
			NICIn:  sim.NewResource(sim.L("nic-in", i), cfg.NICRate),
			Disk:   sim.NewResource(sim.L("disk", i), cfg.DiskWrite),
			k:      k,

			noiseRand: sim.NewRand(k.Rand().Int63()),
		}
		nd.advanceNoise(0)
		c.Nodes = append(c.Nodes, nd)
	}
	return c
}

// advanceNoise draws the next daemon-noise event strictly after t.
func (n *Node) advanceNoise(t sim.Time) {
	if n.Cfg.DaemonEvery <= 0 {
		n.nextNoise = 1<<62 - 1
		return
	}
	gap := sim.Time(n.noiseRand.ExpFloat64() * float64(n.Cfg.DaemonEvery))
	if gap < sim.Millisecond {
		gap = sim.Millisecond
	}
	n.nextNoise = t + gap
	span := n.Cfg.DaemonMax - n.Cfg.DaemonMin
	n.noiseAmt = n.Cfg.DaemonMin
	if span > 0 {
		n.noiseAmt += sim.Time(n.noiseRand.Int63n(int64(span)))
	}
}

// NoiseWithin returns the total daemon-delay magnitude striking this node in
// the half-open virtual-time interval [t0, t1), consuming those noise events.
func (n *Node) NoiseWithin(t0, t1 sim.Time) sim.Time {
	var total sim.Time
	for n.nextNoise < t1 {
		if n.nextNoise >= t0 {
			total += n.noiseAmt
		}
		n.advanceNoise(n.nextNoise)
	}
	return total
}

// Compute blocks p for flops worth of computation on this node, including
// multiplicative jitter and any daemon-noise events falling in the window.
func (n *Node) Compute(p *sim.Proc, flops float64) {
	if flops <= 0 {
		return
	}
	base := sim.Time(flops / n.Cfg.FlopRate * float64(sim.Second))
	if n.Cfg.JitterFrac > 0 {
		base = sim.Time(float64(base) * (1 + n.noiseRand.Float64()*n.Cfg.JitterFrac))
	}
	start := p.Now()
	base += n.NoiseWithin(start, start+base)
	p.Hold(base)
}

// Delay blocks p for a fixed duration plus any daemon noise in the window.
// Checkpoint protocols use it for lock/coordination constants so that noise
// can strike coordination phases exactly as it strikes computation.
func (n *Node) Delay(p *sim.Proc, d sim.Time) {
	start := p.Now()
	d += n.NoiseWithin(start, start+d)
	p.Hold(d)
}

// Transfer models a point-to-point message of size bytes from node a to node
// b: the sending process p is blocked while the message serializes through
// a's outbound NIC; the message then crosses the network (fixed latency) and
// serializes through b's inbound NIC. Transfer returns the arrival time at b
// without blocking p beyond the sender-side serialization.
//
// Same-node transfers model a local memory copy at 10× NIC rate with no
// latency.
func (c *Cluster) Transfer(p *sim.Proc, a, b *Node, bytes int64) sim.Time {
	if a == b {
		d := sim.Time(float64(bytes) / (10 * c.Cfg.NICRate) * float64(sim.Second))
		p.Hold(d)
		return p.Now()
	}
	return c.RecvSide(b, c.SendSide(p, a, bytes), bytes)
}

// SendSide models the sender half of a cross-node Transfer: p serializes the
// message through a's outbound NIC, and the returned time is when the
// message reaches the far side of the wire (serialized + fixed latency) —
// before receiver-side NIC serialization. Splitting Transfer here is what
// lets a partitioned run ship a message across a partition edge: the send
// half books only sender-owned state, the receive half (RecvSide) books only
// receiver-owned state, and the latency between them is the lookahead that
// makes the edge safe.
func (c *Cluster) SendSide(p *sim.Proc, a *Node, bytes int64) sim.Time {
	wire := bytes + c.Cfg.MsgOverhead
	return a.NICOut.Use(p, wire) + c.Cfg.Latency
}

// RecvSide models the receiver half: the message, available at the wire at
// time at, serializes through b's inbound NIC; the returned time is its
// arrival. Must run in b's partition.
func (c *Cluster) RecvSide(b *Node, at sim.Time, bytes int64) sim.Time {
	return b.NICIn.ReserveAt(at, bytes+c.Cfg.MsgOverhead)
}
