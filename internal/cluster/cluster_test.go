package cluster

import (
	"testing"

	"repro/internal/sim"
)

// quiet returns a config with jitter and noise disabled for exact-time tests.
func quiet() Config {
	cfg := Gideon()
	cfg.JitterFrac = 0
	cfg.DaemonEvery = 0
	cfg.MsgOverhead = 0
	return cfg
}

func TestTransferTime(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := quiet()
	cfg.NICRate = 1e6 // 1 MB/s
	cfg.Latency = sim.Millisecond
	c := New(k, 2, cfg)
	var sendDone, arrival sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		arrival = c.Transfer(p, c.Nodes[0], c.Nodes[1], 1_000_000)
		sendDone = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != sim.Second {
		t.Errorf("sender released at %v, want 1s (NIC serialization)", sendDone)
	}
	// Arrival = 1s send + 1ms latency + 1s receiver NIC.
	want := sim.Seconds(2) + sim.Millisecond
	if arrival != want {
		t.Errorf("arrival = %v, want %v", arrival, want)
	}
}

func TestTransferSameNode(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, 1, quiet())
	var arrival sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		arrival = c.Transfer(p, c.Nodes[0], c.Nodes[0], 12_500_000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 12.5 MB at 10× NIC rate (125 MB/s) = 0.1 s; no latency.
	if arrival != sim.Seconds(0.1) {
		t.Errorf("same-node arrival = %v, want 0.1s", arrival)
	}
}

func TestTransferContentionOnReceiverNIC(t *testing.T) {
	// Two senders to the same receiver: arrivals serialize on its NIC.
	k := sim.NewKernel(1)
	cfg := quiet()
	cfg.NICRate = 1e6
	cfg.Latency = 0
	c := New(k, 3, cfg)
	var arr []sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("s", func(p *sim.Proc) {
			arr = append(arr, c.Transfer(p, c.Nodes[i], c.Nodes[2], 1_000_000))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2 {
		t.Fatal("missing transfers")
	}
	first, second := arr[0], arr[1]
	if second < first {
		first, second = second, first
	}
	if first != sim.Seconds(2) || second != sim.Seconds(3) {
		t.Errorf("arrivals = %v, want 2s then 3s (receiver NIC serialization)", arr)
	}
}

func TestComputeTimeNoJitter(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, 1, quiet())
	var end sim.Time
	k.Spawn("c", func(p *sim.Proc) {
		c.Nodes[0].Compute(p, 2e9) // 2 Gflop at 1 Gflop/s
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Seconds(2) {
		t.Errorf("compute end = %v, want 2s", end)
	}
}

func TestComputeJitterBounded(t *testing.T) {
	cfg := quiet()
	cfg.JitterFrac = 0.10
	k := sim.NewKernel(7)
	c := New(k, 1, cfg)
	var end sim.Time
	k.Spawn("c", func(p *sim.Proc) {
		c.Nodes[0].Compute(p, 1e9)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end < sim.Second || end > sim.Seconds(1.10)+1 {
		t.Errorf("jittered compute = %v, want within [1s, 1.1s]", end)
	}
}

func TestNoiseWithinConsumesEvents(t *testing.T) {
	cfg := quiet()
	cfg.DaemonEvery = 10 * sim.Second
	cfg.DaemonMin = sim.Second
	cfg.DaemonMax = sim.Second
	k := sim.NewKernel(3)
	c := New(k, 1, cfg)
	n := c.Nodes[0]
	// Over a long window the total noise should be roughly
	// window/DaemonEvery events × 1s each.
	total := n.NoiseWithin(0, 1000*sim.Second)
	events := total / sim.Second
	if events < 50 || events > 200 {
		t.Errorf("noise events in 1000s = %d, want ~100", events)
	}
	// The same window again must return zero (events consumed).
	if again := n.NoiseWithin(0, 1000*sim.Second); again != 0 {
		t.Errorf("re-query returned %v, want 0", again)
	}
}

func TestNoiseDisabled(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, 1, quiet())
	if got := c.Nodes[0].NoiseWithin(0, 1e18); got != 0 {
		t.Errorf("disabled noise returned %v", got)
	}
}

func TestNodesHaveIndependentNoiseStreams(t *testing.T) {
	cfg := quiet()
	cfg.DaemonEvery = 10 * sim.Second
	cfg.DaemonMin = sim.Second
	cfg.DaemonMax = 3 * sim.Second
	k := sim.NewKernel(5)
	c := New(k, 2, cfg)
	a := c.Nodes[0].NoiseWithin(0, 500*sim.Second)
	b := c.Nodes[1].NoiseWithin(0, 500*sim.Second)
	if a == b {
		t.Errorf("two nodes produced identical noise totals %v (streams not independent)", a)
	}
}

func TestLocalDiskWriteRead(t *testing.T) {
	cfg := quiet()
	cfg.DiskWrite = 40e6
	cfg.DiskRead = 80e6
	k := sim.NewKernel(1)
	c := New(k, 1, cfg)
	st := LocalDisk{}
	var w, r sim.Time
	k.Spawn("io", func(p *sim.Proc) {
		w = st.Write(p, c.Nodes[0], 40_000_000) // 1s at 40 MB/s
		r = st.Read(p, c.Nodes[0], 40_000_000)  // 0.5s at 80 MB/s
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w != sim.Second {
		t.Errorf("write done at %v, want 1s", w)
	}
	if r != sim.Seconds(1.5) {
		t.Errorf("read done at %v, want 1.5s", r)
	}
}

func TestRemoteStoreContention(t *testing.T) {
	// 8 clients, 2 servers, server NIC slower than client NICs: writers
	// striped 4-per-server queue on the server NIC.
	cfg := quiet()
	cfg.NICRate = 100e6
	cfg.Latency = 0
	k := sim.NewKernel(1)
	c := New(k, 8, cfg)
	rs := NewRemoteStore(c, 2, 10e6, 1e9) // server NIC 10 MB/s
	if rs.Name() != "remote-2-servers" {
		t.Errorf("Name = %q", rs.Name())
	}
	var last sim.Time
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn("w", func(p *sim.Proc) {
			end := rs.Write(p, c.Nodes[i], 10_000_000)
			if end > last {
				last = end
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Each server ingests 4×10 MB at 10 MB/s = 4s.
	if last < sim.Seconds(4) || last > sim.Seconds(4.3) {
		t.Errorf("last write completed at %v, want ≈4s (server NIC bound)", last)
	}
}

func TestRemoteStoreRead(t *testing.T) {
	cfg := quiet()
	cfg.NICRate = 100e6
	cfg.Latency = 0
	k := sim.NewKernel(1)
	c := New(k, 1, cfg)
	rs := NewRemoteStore(c, 1, 50e6, 25e6)
	var end sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		end = rs.Read(p, c.Nodes[0], 25_000_000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Disk read 1s dominates; then NIC stages pipeline after it.
	if end < sim.Second || end > sim.Seconds(1.8) {
		t.Errorf("remote read completed at %v, want ≥1s (disk bound)", end)
	}
}

func TestGideonDefaultsSane(t *testing.T) {
	cfg := Gideon()
	if cfg.FlopRate <= 0 || cfg.NICRate <= 0 || cfg.DiskWrite <= 0 {
		t.Fatalf("non-positive rates in default config: %+v", cfg)
	}
	if cfg.Latency <= 0 {
		t.Error("latency must be positive")
	}
	if cfg.MemBytes != 512<<20 {
		t.Errorf("MemBytes = %d, want 512 MiB (Gideon nodes)", cfg.MemBytes)
	}
}

func TestDelayIncludesNoise(t *testing.T) {
	cfg := quiet()
	cfg.DaemonEvery = sim.Second // noise certain in a long window
	cfg.DaemonMin = 5 * sim.Second
	cfg.DaemonMax = 5 * sim.Second
	k := sim.NewKernel(11)
	c := New(k, 1, cfg)
	var end sim.Time
	k.Spawn("d", func(p *sim.Proc) {
		c.Nodes[0].Delay(p, 10*sim.Second)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end <= 10*sim.Second {
		t.Errorf("Delay with heavy noise ended at %v, want > 10s", end)
	}
}

func TestAsyncRemoteReleasesWriterEarly(t *testing.T) {
	cfg := quiet()
	cfg.NICRate = 100e6
	k := sim.NewKernel(1)
	c := New(k, 2, cfg)
	rs := NewRemoteStore(c, 1, 1e6, 1e6) // very slow server
	ar := NewAsyncRemote(rs, 100e6)
	if ar.Name() != "nfs-async-1-servers" {
		t.Errorf("Name = %q", ar.Name())
	}
	var syncEnd, asyncEnd sim.Time
	k.Spawn("sync", func(p *sim.Proc) {
		syncEnd = rs.Write(p, c.Nodes[0], 10_000_000)
	})
	k.Spawn("async", func(p *sim.Proc) {
		asyncEnd = ar.Write(p, c.Nodes[1], 10_000_000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if asyncEnd >= sim.Second {
		t.Errorf("async write blocked for %v, want ~0.1s (local absorb)", asyncEnd)
	}
	if syncEnd < 10*sim.Second {
		t.Errorf("sync write finished at %v, want ≥10s (server bound)", syncEnd)
	}
}

func TestAsyncRemoteBackgroundDrainConsumesServer(t *testing.T) {
	cfg := quiet()
	cfg.NICRate = 100e6
	k := sim.NewKernel(1)
	c := New(k, 1, cfg)
	rs := NewRemoteStore(c, 1, 10e6, 10e6)
	ar := NewAsyncRemote(rs, 0) // default absorb rate
	k.Spawn("w", func(p *sim.Proc) {
		ar.Write(p, c.Nodes[0], 10_000_000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A zero-byte booking completes when the resource frees up. The disk
	// frees 1 s (10 MB at 10 MB/s) after the server NIC delivered the
	// drain only if it wrote all 10 MB.
	srv := rs.Servers[0]
	if got := srv.Disk.ReserveAt(0, 0) - srv.NIC.ReserveAt(0, 0); got != sim.Second {
		t.Errorf("background drain kept the server disk busy %v past delivery, want 1s (all 10MB)", got)
	}
}

func TestNamedProfiles(t *testing.T) {
	for _, name := range Profiles() {
		if _, ok := Named(name); !ok {
			t.Errorf("Profiles lists %q but Named does not resolve it", name)
		}
	}
	g, ok := Named("Gideon") // case-insensitive
	if !ok || g != Gideon() {
		t.Error("Named(Gideon) did not resolve to the Gideon calibration")
	}
	if _, ok := Named("cray-xt5"); ok {
		t.Error("Named resolved an unknown profile")
	}
}

func TestModernIsFasterThanGideonEverywhere(t *testing.T) {
	g, m := Gideon(), Modern()
	if m.FlopRate <= g.FlopRate || m.NICRate <= g.NICRate ||
		m.DiskWrite <= g.DiskWrite || m.DiskRead <= g.DiskRead {
		t.Errorf("Modern not uniformly faster: %+v vs %+v", m, g)
	}
	if m.Latency >= g.Latency {
		t.Errorf("Modern latency %v not below Gideon's %v", m.Latency, g.Latency)
	}
}
