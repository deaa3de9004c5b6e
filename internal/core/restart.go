package core

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mlog"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// RestartSpec describes a whole-application restart from the latest
// checkpoint (the paper's restart experiments: after the program finishes it
// is immediately restarted from the only checkpoint, and the time to resume
// normal operation is measured per process).
type RestartSpec struct {
	N          int
	ClusterCfg cluster.Config
	Formation  group.Formation
	Snapshots  []*ckpt.Snapshot // latest snapshot per rank (all non-nil)
	Logs       []*mlog.Set      // sender logs per rank (nil for NORM/VCL)
	Seed       int64

	// Storage for reading images back. Zero value = local disk.
	RemoteServers int
	ServerNIC     float64
	ServerDisk    float64
}

// Calibrated costs of a restart.
const (
	// rebuildDelay is the fixed cost of recreating the process space and
	// updating the MPI runtime's internal structures.
	rebuildDelay = 50 * sim.Millisecond
	// restartPeerCost is the per-peer cost of the RX/SX exchange (socket
	// setup, replay determination), mirroring the per-channel quiesce
	// cost of checkpointing.
	restartPeerCost = 25 * sim.Millisecond
)

// RestartRecord is one rank's restart measurement.
type RestartRecord struct {
	Rank        int
	Start, End  sim.Time
	ImageBytes  int64
	ResendBytes int64 // bytes this rank re-sent to out-of-group peers
	ResendOps   int   // replay sessions (directed pairs) with bytes > 0
	ResendMsgs  int   // logged messages covered by those sessions
	SkipBytes   int64 // bytes peers already had (skipped rather than re-sent)
}

// Duration returns the rank's restart time (recreation → normal execution).
func (r RestartRecord) Duration() sim.Time { return r.End - r.Start }

// RestartOutcome aggregates a restart simulation.
type RestartOutcome struct {
	Records     []RestartRecord
	ResendBytes int64
	ResendOps   int
	ResendMsgs  int
	SkipBytes   int64
	MakespanEnd sim.Time
}

// AggregateRestartTime returns the summed per-rank restart time (the
// paper's Figures 6b, 11b, 12b metric).
func (o RestartOutcome) AggregateRestartTime() sim.Time {
	var t sim.Time
	for _, r := range o.Records {
		t += r.Duration()
	}
	return t
}

// SimulateRestart replays the restart protocol of Algorithm 1 on a fresh
// simulated cluster:
//
//  1. every rank reads its image back from storage and rebuilds;
//  2. each pair of out-of-group processes exchanges the volumes of
//     messages sent/received at their checkpoints (RX/SX);
//  3. senders replay logged messages the receiver had not yet received at
//     its checkpoint, and skip sending volumes the receiver already has;
//  4. group members synchronize and return to normal execution.
//
// With a global formation (NORM, VCL) steps 2–3 vanish: restart is image
// load plus a barrier, which is why global restart is always fastest —
// matching the paper's observation.
func SimulateRestart(spec RestartSpec) (RestartOutcome, error) {
	for i := 0; i < spec.N; i++ {
		if spec.Snapshots[i] == nil {
			return RestartOutcome{}, fmt.Errorf("core: rank %d has no snapshot to restart from", i)
		}
	}
	k := sim.NewKernel(spec.Seed)
	defer k.Shutdown()
	c := cluster.New(k, spec.N, spec.ClusterCfg)
	w := mpi.NewWorld(k, c, spec.N)
	var store cluster.Storage = cluster.LocalDisk{}
	if spec.RemoteServers > 0 {
		store = cluster.NewRemoteStore(c, spec.RemoteServers, spec.ServerNIC, spec.ServerDisk)
	}

	// Symmetric peer sets: rank i must exchange RX/SX with q whenever
	// either side's snapshot mentions the other (one-way traffic that the
	// receiver never consumed before its checkpoint would otherwise leave
	// the peer lists asymmetric and deadlock the exchange).
	peerSets := make([]map[int]bool, spec.N)
	for i := range peerSets {
		peerSets[i] = map[int]bool{}
	}
	for i := 0; i < spec.N; i++ {
		for _, c := range spec.Snapshots[i].Cuts {
			peerSets[i][c.Peer] = true
			peerSets[c.Peer][i] = true
		}
	}

	records := make([]RestartRecord, spec.N)
	for i := 0; i < spec.N; i++ {
		i := i
		r := w.Ranks[i]
		snap := spec.Snapshots[i]
		k.Spawn(sim.L("restart", i), func(p *sim.Proc) {
			rec := RestartRecord{Rank: i, Start: p.Now(), ImageBytes: snap.ImageBytes}

			// 1. Load the image and rebuild the process space.
			store.Read(p, r.Node, snap.ImageBytes)
			r.Node.Delay(p, rebuildDelay)

			// 2. RX/SX exchange with out-of-group peers.
			peers := make([]int, 0, len(peerSets[i]))
			for q := range peerSets[i] {
				peers = append(peers, q)
			}
			sort.Ints(peers)
			for _, q := range peers {
				r.CtrlSend(p, q, tagRxSx, rxSxBytes, 0,
					[2]int64{snap.SentTo(q), snap.RecvdFrom(q)})
			}
			theirSent := map[int]int64{}
			theirRecvd := map[int]int64{}
			for _, q := range peers {
				m := r.CtrlRecv(p, q, tagRxSx)
				r.Node.Delay(p, restartPeerCost) // per-peer exchange work
				v := m.Payload.([2]int64)
				theirSent[m.Src], theirRecvd[m.Src] = v[0], v[1]
			}

			// 3. Replay owed volumes; skip what the peer already has.
			ld := cluster.LocalDisk{}
			for _, q := range peers {
				owe := snap.SentTo(q) - theirRecvd[q]
				if owe <= 0 {
					rec.SkipBytes += -owe
					continue
				}
				plan := spec.Logs[i].Replay(q, theirRecvd[q], snap.SentTo(q))
				// Read the logged bytes back from local disk,
				// then resend over the network as one session.
				ld.Read(p, r.Node, plan.Bytes)
				r.CtrlSend(p, q, tagReplay, plan.Bytes, 0, plan)
				rec.ResendBytes += plan.Bytes
				rec.ResendOps++
				rec.ResendMsgs += plan.Msgs
			}
			// Wait for everything peers owe us.
			for _, q := range peers {
				want := theirSent[q] - snap.RecvdFrom(q)
				var got int64
				for got < want {
					m := r.CtrlRecv(p, q, tagReplay)
					got += m.Bytes
				}
			}

			// 4. Synchronize with group members and resume.
			ctrlBarrier(p, r, spec.Formation.Members(i), tagBarrierBase+0x7000)
			rec.End = p.Now()
			records[i] = rec
		})
	}
	if err := k.Run(); err != nil {
		return RestartOutcome{}, fmt.Errorf("core: restart simulation: %w", err)
	}
	out := RestartOutcome{Records: records}
	for _, rec := range records {
		out.ResendBytes += rec.ResendBytes
		out.ResendOps += rec.ResendOps
		out.ResendMsgs += rec.ResendMsgs
		out.SkipBytes += rec.SkipBytes
		if rec.End > out.MakespanEnd {
			out.MakespanEnd = rec.End
		}
	}
	return out, nil
}
