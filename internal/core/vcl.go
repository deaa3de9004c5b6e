package core

import (
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// VCL implements the MPICH-VCL baseline: Chandy–Lamport non-blocking
// coordinated checkpointing with checkpoint images streamed to remote
// checkpoint servers.
//
// On a checkpoint request, every rank:
//
//  1. freezes its application just long enough to capture a copy-on-write
//     snapshot and sends a marker to every peer (the Chandy–Lamport cut);
//  2. resumes the application and streams the image to its checkpoint
//     server concurrently — but the stream occupies the node's NIC with
//     backpressure from the shared servers, starving application sends;
//  3. records in-transit messages on each channel until the peer's marker
//     arrives (channel-state logging).
//
// The protocol is "non-blocking" by construction — yet, as the paper's
// Figure 2 shows, with many ranks the server contention stretches the
// dumps until tightly-coupled applications stall anyway. That behaviour is
// emergent here: nothing in this implementation schedules blocking; it
// falls out of NIC backpressure plus server queueing.
type VCL struct {
	controller
	store      cluster.Storage
	imageBytes func(int) int64

	// chanLogged[rank] is the bytes recorded as channel state; recording
	// is true while the rank collects markers.
	chanLogged []int64
	recording  []bool
}

// NewVCL installs the VCL protocol on a world. store is usually a
// cluster.RemoteStore with 4 servers (the paper's Section 5.3 setup).
func NewVCL(w *mpi.World, store cluster.Storage, imageBytes func(int) int64) *VCL {
	if imageBytes == nil {
		imageBytes = func(int) int64 { return 0 }
	}
	v := &VCL{
		store: store, imageBytes: imageBytes,
		chanLogged: make([]int64, w.N),
		recording:  make([]bool, w.N),
	}
	w.Hooks = v
	v.start(w, group.Global(w.N).Groups, v.checkpoint)
	return v
}

// Name implements the protocol interface.
func (v *VCL) Name() string { return "VCL" }

// BeforeSend implements mpi.Hooks (no sender-side work in VCL).
func (v *VCL) BeforeSend(r *mpi.Rank, m *mpi.Msg) sim.Time { return 0 }

// OnDeliver implements mpi.Hooks: while recording, message bytes count as
// channel state (they arrived after our snapshot but belong before the
// sender's marker).
func (v *VCL) OnDeliver(d *mpi.Rank, m *mpi.Msg) {
	if v.recording[d.ID] {
		v.chanLogged[d.ID] += m.Bytes
	}
}

// checkpoint runs one rank's side of a VCL checkpoint and hands the result
// to finish.
func (v *VCL) checkpoint(p *sim.Proc, r *mpi.Rank, epoch, replyTo int) {
	n := v.w.N
	start := p.Now()

	// 1. Freeze and cut: stop the application briefly, mark the snapshot
	// point, send markers on every channel. The freeze lasts only as long
	// as capturing the copy-on-write snapshot.
	r.Gate.Close()
	r.SendGate.Close()
	r.Node.Delay(p, 100*sim.Millisecond)
	v.recording[r.ID] = true
	tag := tagMarkerBase + epoch
	for q := 0; q < n; q++ {
		if q != r.ID {
			r.CtrlSend(p, q, tag, markerBytes, 0, nil)
		}
	}
	tCut := p.Now()

	// 2. Resume the application immediately after the cut (the
	// non-blocking property: the snapshot is captured copy-on-write and
	// the daemon streams it out while computation continues), then dump
	// the image to the checkpoint server. The dump contends with the
	// application for the node's NIC — with backpressure from the shared
	// servers, that contention is what turns "non-blocking" into
	// blocking at scale.
	r.Gate.Open()
	r.SendGate.Open()
	img := v.imageBytes(r.ID)
	v.store.Write(p, r.Node, img)
	tWrite := p.Now()

	// 3. Collect the n−1 markers; receives between our snapshot and each
	// peer's marker were recorded as channel state by OnDeliver.
	for range n - 1 {
		r.CtrlRecv(p, mpi.AnySource, tag)
	}
	v.recording[r.ID] = false
	end := p.Now()

	snap := &ckpt.Snapshot{
		Rank: r.ID, Epoch: epoch, At: tCut,
		ImageBytes: img,
	}
	v.finish(p, r, snap, ckpt.Record{
		Rank: r.ID, Epoch: epoch, Start: start, End: end,
		Stages: ckpt.Breakdown{
			ckpt.StageLock:     tCut - start,
			ckpt.StageCoord:    end - tWrite, // marker collection
			ckpt.StageWrite:    tWrite - tCut,
			ckpt.StageFinalize: 0,
		},
		ImageBytes: img,
	}, replyTo)
}
