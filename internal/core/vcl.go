package core

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/cluster"
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
	w          *mpi.World
	store      cluster.Storage
	imageBytes func(int) int64

	// OnRecord, when non-nil, receives each rank's completed checkpoint
	// record the moment the rank finishes its dump and marker collection —
	// the VCL counterpart of Config.OnRecord on the group engine, so
	// ckpt_* metrics cover mode comparisons end to end. It runs in the
	// checkpointing daemon's context and must not block. Set it before
	// the first scheduled checkpoint.
	OnRecord func(ckpt.Record)

	states   []*vclState
	records  []ckpt.Record
	epochs   int
	epochSeq int

	epochSpans []Span
}

type vclState struct {
	r *mpi.Rank

	// Channel-state recording: markers outstanding and bytes logged since
	// this rank's snapshot.
	recording    bool
	markersLeft  int
	rxAtSnapshot []int64
	chanLogged   int64
	snap         *ckpt.Snapshot
}

// NewVCL installs the VCL protocol on a world. store is usually a
// cluster.RemoteStore with 4 servers (the paper's Section 5.3 setup).
func NewVCL(w *mpi.World, store cluster.Storage, imageBytes func(int) int64) *VCL {
	if imageBytes == nil {
		imageBytes = func(int) int64 { return 0 }
	}
	v := &VCL{w: w, store: store, imageBytes: imageBytes}
	for _, r := range w.Ranks {
		v.states = append(v.states, &vclState{r: r})
	}
	w.Hooks = v
	for _, st := range v.states {
		st := st
		w.K.SpawnDaemon(fmt.Sprintf("vcld%d", st.r.ID), func(p *sim.Proc) {
			v.daemon(st, p)
		})
	}
	return v
}

// Name implements the protocol interface.
func (v *VCL) Name() string { return "VCL" }

// Records returns per-rank checkpoint records.
func (v *VCL) Records() []ckpt.Record { return v.records }

// Epochs returns completed checkpoint epochs.
func (v *VCL) Epochs() int { return v.epochs }

// EpochSpans returns the controller-observed checkpoint spans.
func (v *VCL) EpochSpans() []Span { return v.epochSpans }

// Snapshots returns the latest per-rank snapshots.
func (v *VCL) Snapshots() []*ckpt.Snapshot {
	out := make([]*ckpt.Snapshot, len(v.states))
	for i, st := range v.states {
		out[i] = st.snap
	}
	return out
}

// BeforeSend implements mpi.Hooks (no sender-side work in VCL).
func (v *VCL) BeforeSend(r *mpi.Rank, m *mpi.Msg) sim.Time { return 0 }

// OnDeliver implements mpi.Hooks: while recording, message bytes count as
// channel state (they arrived after our snapshot but belong before the
// sender's marker).
func (v *VCL) OnDeliver(d *mpi.Rank, m *mpi.Msg) {
	st := v.states[d.ID]
	if st.recording {
		st.chanLogged += m.Bytes
	}
}

func (v *VCL) daemon(st *vclState, p *sim.Proc) {
	for {
		m := st.r.CtrlRecv(p, mpi.AnySource, tagCkptReq)
		epoch := m.Payload.(int)
		v.checkpoint(st, p, epoch, m.Src)
	}
}

func (v *VCL) checkpoint(st *vclState, p *sim.Proc, epoch, replyTo int) {
	r := st.r
	n := v.w.N
	start := p.Now()

	// 1. Freeze and cut: stop the application briefly, mark the snapshot
	// point, send markers on every channel. The freeze lasts only as long
	// as capturing the copy-on-write snapshot.
	r.Gate.Close()
	r.SendGate.Close()
	r.Node.Delay(p, 100*sim.Millisecond)
	st.rxAtSnapshot = make([]int64, n)
	for q := 0; q < n; q++ {
		if q != r.ID {
			st.rxAtSnapshot[q] = r.RecvdBytes(q)
		}
	}
	st.recording = true
	st.markersLeft = n - 1
	tag := tagMarkerBase + epoch
	for q := 0; q < n; q++ {
		if q != r.ID {
			r.CtrlSend(p, q, tag, markerBytes, nil)
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

	// 3. Collect markers; receives between our snapshot and each
	// peer's marker were recorded as channel state by OnDeliver.
	for left := st.markersLeft; left > 0; left-- {
		r.CtrlRecv(p, mpi.AnySource, tag)
	}
	st.recording = false
	end := p.Now()

	st.snap = &ckpt.Snapshot{
		Rank: r.ID, Epoch: epoch, At: tCut,
		ImageBytes: img,
		SentTo:     map[int]int64{},
		RecvdFrom:  map[int]int64{},
	}
	rec := ckpt.Record{
		Rank: r.ID, Epoch: epoch, Start: start, End: end,
		Stages: ckpt.Breakdown{
			ckpt.StageLock:     tCut - start,
			ckpt.StageCoord:    end - tWrite, // marker collection
			ckpt.StageWrite:    tWrite - tCut,
			ckpt.StageFinalize: 0,
		},
		ImageBytes: img,
	}
	v.records = append(v.records, rec)
	if v.OnRecord != nil {
		v.OnRecord(rec)
	}
	r.CtrlSend(p, replyTo, tagCkptDoneBase+epoch, doneBytes, epoch)
}

// ScheduleAt triggers one checkpoint of all ranks at time t.
func (v *VCL) ScheduleAt(t sim.Time) {
	v.w.K.At(t, func() {
		v.w.K.SpawnDaemon("mpirun-vcl", func(p *sim.Proc) {
			v.runEpoch(p)
		})
	})
}

// SchedulePeriodic checkpoints every interval from start until the
// application finishes or maxCount epochs complete (0 = unlimited) — the
// paper triggers VCL every 30 s (Figure 2) or 120 s (Section 5.3).
func (v *VCL) SchedulePeriodic(start, interval sim.Time, maxCount int) {
	v.w.K.At(0, func() {
		v.w.K.SpawnDaemon("mpirun-vcl", func(p *sim.Proc) {
			next := start
			for i := 0; maxCount == 0 || i < maxCount; i++ {
				p.HoldUntil(next)
				if v.appFinished() {
					return
				}
				v.runEpoch(p)
				next += interval
				if now := p.Now(); next < now {
					next = now
				}
			}
		})
	})
}

func (v *VCL) appFinished() bool {
	for _, r := range v.w.Ranks {
		if !r.Finished {
			return false
		}
	}
	return true
}

func (v *VCL) runEpoch(p *sim.Proc) {
	epoch := v.epochSeq
	v.epochSeq++
	head := v.w.Ranks[0]
	from := p.Now()
	for q := 0; q < v.w.N; q++ {
		head.CtrlSend(p, q, tagCkptReq, reqBytes, epoch)
	}
	for q := 0; q < v.w.N; q++ {
		head.CtrlRecv(p, mpi.AnySource, tagCkptDoneBase+epoch)
	}
	v.epochs++
	v.epochSpans = append(v.epochSpans, Span{From: from, To: p.Now()})
}
