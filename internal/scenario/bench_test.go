package scenario

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
)

// BenchmarkScenario4096 runs one 4096-rank cell with stochastic failures —
// 32× the paper's peak scale, the regime the kernel's concrete event heap
// and lazy per-channel counters were reworked for. Wall time per op is the
// headline: a cell at this scale completes in seconds, so scenario sweeps
// to 4096 ranks are routine. The cell runs on the group-partitioned kernel
// at one worker; the two benchmarks below bracket it.
func BenchmarkScenario4096(b *testing.B) {
	benchScenario4096(b, Instrument{})
}

// BenchmarkScenario4096Unpartitioned is the same cell on the classic serial
// kernel, never partitioned: the baseline the partitioned kernel at one
// worker has to match.
func BenchmarkScenario4096Unpartitioned(b *testing.B) {
	benchScenario4096(b, Instrument{PartitionMinRanks: -1})
}

// BenchmarkScenario4096Parallel is the partitioned cell at RunWorkers 2.
func BenchmarkScenario4096Parallel(b *testing.B) {
	benchScenario4096(b, Instrument{RunWorkers: 2})
}

func benchScenario4096(b *testing.B, ins Instrument) {
	src := `{
		"name": "scale-4096",
		"cluster": {"profile": "modern"},
		"workload": {"kind": "synthetic", "iters": 60, "mflopsPerIter": 3000},
		"scales": [4096],
		"modes": ["GP1"],
		"checkpoint": {"intervalS": 5},
		"failures": {"process": "poisson", "mtbfS": 4},
		"reps": 1,
		"seed": 1
	}`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	benchSweep(b, s, ins)
}

// benchSweep runs s's sweep b.N times under ins and reports events/s beside
// ns/op: kernel events (Result.Events, summed over the cells through the
// RunObserved observer) per second of benchmark time — the simulation's
// throughput, comparable across cells of different sizes.
func benchSweep(b *testing.B, s *Spec, ins Instrument) {
	var events atomic.Uint64
	count := func(_ Cell, res *harness.Result) error {
		events.Add(res.Events)
		return nil
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.RunObserved(context.Background(), 0, ins, count); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events.Load())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkScenario16384Parallel is BenchmarkScenario16384 with the cell's
// own event loop spread across 8 worker threads: at 16384 ranks the kernel
// splits the world into group-based partitions, and RunWorkers lets them
// advance concurrently between lookahead barriers. The output is
// byte-identical to the serial run (TestScale64kQuickWorkerIdentity pins
// that), so the ratio of this benchmark to BenchmarkScenario16384 is pure
// speedup — on a multi-core host it should be well under 1×; on a
// single-core host it measures the round-barrier overhead instead.
func BenchmarkScenario16384Parallel(b *testing.B) {
	s, ok := BuiltIn("scale16k")
	if !ok {
		b.Fatal("scale16k built-in missing")
	}
	benchSweep(b, s, Instrument{RunWorkers: 8})
}

// BenchmarkScenario16384 runs the scale16k built-in profile: one
// 16384-rank cell with stochastic failures — 128× the paper's peak scale.
// This is the ceiling the coroutine scheduler, the pooled message path, and
// the sparse per-peer transport state buy: the cell completes in seconds of
// wall clock with memory bounded by touched channels, not n².
func BenchmarkScenario16384(b *testing.B) {
	s, ok := BuiltIn("scale16k")
	if !ok {
		b.Fatal("scale16k built-in missing")
	}
	benchSweep(b, s, Instrument{})
}
