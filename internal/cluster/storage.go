package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// Storage is where checkpoint images and message logs are written. The two
// implementations mirror the paper's setups: LocalDisk (default LAM/MPI and
// group-based experiments) and RemoteStore (the MPICH-VCL comparison, where 4
// isolated nodes act as checkpoint servers, also reachable via NFS).
type Storage interface {
	// Write blocks p while size bytes are persisted from node n and
	// returns the completion time.
	Write(p *sim.Proc, n *Node, size int64) sim.Time
	// Read blocks p while size bytes are fetched to node n and returns
	// the completion time.
	Read(p *sim.Proc, n *Node, size int64) sim.Time
	// Name identifies the storage target in reports.
	Name() string
}

// LocalDisk persists to the writing node's own disk.
type LocalDisk struct {
	ReadRate float64 // bytes/s; if 0, the cluster config's DiskRead is used
}

// Name implements Storage.
func (LocalDisk) Name() string { return "local-disk" }

// Write implements Storage.
func (LocalDisk) Write(p *sim.Proc, n *Node, size int64) sim.Time {
	return n.Disk.Use(p, size)
}

// Read implements Storage. Reads share the same disk arm as writes but run
// at the configured read rate (modelled as a scaled byte count).
func (l LocalDisk) Read(p *sim.Proc, n *Node, size int64) sim.Time {
	rr := l.ReadRate
	if rr == 0 {
		rr = n.Cfg.DiskRead
	}
	// The Disk resource is calibrated in write-rate bytes; scale so the
	// service time equals size/readRate.
	scaled := int64(float64(size) * n.Cfg.DiskWrite / rr)
	return n.Disk.Use(p, scaled)
}

// Server is one remote checkpoint server: a NIC it shares with all clients
// and a disk behind it.
type Server struct {
	NIC  sim.Resource
	Disk sim.Resource
}

// RemoteStore stripes clients across a fixed set of checkpoint servers
// (client i uses server i mod len(servers)), as in the paper's Section 5.3
// experiments. Writing streams through the client NIC, the network, the
// server NIC and the server disk; the slowest stage dominates, so many
// concurrent writers queue on the shared server NICs.
type RemoteStore struct {
	C       *Cluster
	Servers []*Server
}

// NewRemoteStore creates nServers checkpoint servers with the given NIC and
// disk rates attached to cluster c.
func NewRemoteStore(c *Cluster, nServers int, nicRate, diskRate float64) *RemoteStore {
	rs := &RemoteStore{C: c}
	for i := 0; i < nServers; i++ {
		rs.Servers = append(rs.Servers, &Server{
			NIC:  sim.NewResource(sim.L("ckptsrv-nic", i), nicRate),
			Disk: sim.NewResource(sim.L("ckptsrv-disk", i), diskRate),
		})
	}
	return rs
}

// Name implements Storage.
func (rs *RemoteStore) Name() string { return fmt.Sprintf("remote-%d-servers", len(rs.Servers)) }

func (rs *RemoteStore) serverFor(n *Node) *Server {
	return rs.Servers[n.ID%len(rs.Servers)]
}

// Write implements Storage: client NIC → latency → server NIC → server disk.
// The client process is blocked until its data is on the server's disk (the
// checkpointer streams synchronously, as BLCR-to-server and NFS writes do).
// Streaming backpressure keeps the client NIC occupied until the server has
// drained the transfer, so concurrent dumps starve application traffic on
// the dumping node — the mechanism behind MPICH-VCL's blocking at scale.
func (rs *RemoteStore) Write(p *sim.Proc, n *Node, size int64) sim.Time {
	srv := rs.serverFor(n)
	sent := n.NICOut.Use(p, size)
	arr := srv.NIC.ReserveAt(sent+rs.C.Cfg.Latency, size)
	done := srv.Disk.ReserveAt(arr, size)
	n.NICOut.BlockUntil(done)
	p.HoldUntil(done)
	return done
}

// Read implements Storage: server disk → server NIC → latency → client NIC.
func (rs *RemoteStore) Read(p *sim.Proc, n *Node, size int64) sim.Time {
	srv := rs.serverFor(n)
	read := srv.Disk.Use(p, size)
	out := srv.NIC.ReserveAt(read, size)
	done := n.NICIn.ReserveAt(out+rs.C.Cfg.Latency, size)
	p.HoldUntil(done)
	return done
}

// AsyncRemote wraps a RemoteStore with client-side write-behind caching, the
// behaviour of an async-mounted NFS checkpoint directory (the paper's
// "LAM/MPI is also configured to store checkpoint images at these servers
// via NFS"): the writer is released at local memory/disk speed while the
// data drains to the server in the background (still consuming server
// bandwidth, so later synchronous users see the backlog). Reads are always
// remote-speed.
type AsyncRemote struct {
	*RemoteStore
	// AbsorbRate is the local absorb bandwidth (page-cache copy),
	// bytes/second. Default 250 MB/s.
	AbsorbRate float64
}

// NewAsyncRemote wraps rs with write-behind semantics.
func NewAsyncRemote(rs *RemoteStore, absorbRate float64) *AsyncRemote {
	if absorbRate <= 0 {
		absorbRate = 250e6
	}
	return &AsyncRemote{RemoteStore: rs, AbsorbRate: absorbRate}
}

// Name implements Storage.
func (a *AsyncRemote) Name() string {
	return fmt.Sprintf("nfs-async-%d-servers", len(a.Servers))
}

// Write implements Storage: the caller pays only the local absorb cost; the
// transfer to the server is booked in the background.
func (a *AsyncRemote) Write(p *sim.Proc, n *Node, size int64) sim.Time {
	d := sim.Time(float64(size) / a.AbsorbRate * float64(sim.Second))
	end := p.Now() + d
	// Background drain: book the network and server resources without
	// blocking the writer.
	srv := a.serverFor(n)
	sent := n.NICOut.ReserveAt(end, size)
	arr := srv.NIC.ReserveAt(sent+a.C.Cfg.Latency, size)
	srv.Disk.ReserveAt(arr, size)
	p.Hold(d)
	return end
}
