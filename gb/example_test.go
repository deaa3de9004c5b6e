package gb_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/gb"
)

// ExampleRun checkpoints a small ring application under the group-based
// protocol and restarts it from the checkpoint — the whole paper workflow
// in one call chain. Identical seeds make the output reproducible.
func ExampleRun() {
	ctx := context.Background()

	// 8 ranks, heavy neighbour traffic: the structure trace-driven
	// grouping likes. GP traces the run once, forms groups with the
	// paper's Algorithm 2, and checkpoints them at t=5s.
	res, err := gb.Run(ctx, gb.Synthetic(8, 200),
		gb.WithMode(gb.GP),
		gb.WithSeed(1),
		gb.WithSchedule(gb.Schedule{At: 5 * gb.Second}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("groups:      %v\n", res.Formation.Groups)
	fmt.Printf("checkpoints: %d epochs, %d rank-checkpoints\n", res.Epochs, len(res.Records))

	out, err := gb.Restart(res, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restart:     %d bytes replayed in %d sessions\n", out.ResendBytes, out.ResendOps)

	// Output:
	// groups:      [[0 1 7] [2 3 4] [5 6]]
	// checkpoints: 1 epochs, 8 rank-checkpoints
	// restart:     131072 bytes replayed in 2 sessions
}

// ExampleMetricsObserver attaches the online metrics layer to a run and
// reads the published snapshot: named counters, reservoir-sampled
// histograms, and the Prometheus text exposition — the observability
// contract OBSERVABILITY.md documents. Metrics never perturb the
// simulation, so this run is byte-identical to one without the observer.
func ExampleMetricsObserver() {
	res, err := gb.Run(context.Background(), gb.Synthetic(8, 200),
		gb.WithMode(gb.GP1),
		gb.WithSeed(1),
		gb.WithSchedule(gb.Schedule{Interval: 5 * gb.Second}),
		gb.WithObserver(gb.NewMetricsObserver()),
	)
	if err != nil {
		log.Fatal(err)
	}

	m := res.Metrics // immutable snapshot, sorted by name
	sends, _ := m.Counter("mpi_sends_total")
	ckpts, _ := m.Counter("ckpt_completed_total")
	var dur gb.HistogramValue
	for _, h := range m.Histograms {
		if h.Name == "ckpt_duration_seconds" {
			dur = h
		}
	}
	fmt.Printf("sends:       %d\n", sends)
	fmt.Printf("checkpoints: %d (p50 %.3fs)\n", ckpts, dur.P50)

	// The same snapshot renders as Prometheus text exposition, ready for
	// a /metrics endpoint.
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	fmt.Println(lines[1])
	fmt.Println(lines[2])

	// Output:
	// sends:       2000
	// checkpoints: 16 (p50 0.264s)
	// # TYPE ckpt_completed_total counter
	// ckpt_completed_total 16
}

// ExampleWithObserver stacks three observers on one run — the streaming
// communication matrix, the invariant-oracle introspection, and the online
// metrics layer. Each publishes into its own Result fields; tracers fan
// out internally, and the simulation itself is unaffected by how many
// observers watch it.
func ExampleWithObserver() {
	res, err := gb.Run(context.Background(), gb.Synthetic(8, 200),
		gb.WithMode(gb.GP1),
		gb.WithSeed(1),
		gb.WithSchedule(gb.Schedule{Interval: 5 * gb.Second}),
		gb.WithObserver(
			gb.NewCommObserver(),    // Result.Comm
			gb.NewInspectObserver(), // Result.MsgStats, Flows, Cuts
			gb.NewMetricsObserver(), // Result.Metrics
		),
	)
	if err != nil {
		log.Fatal(err)
	}
	events, _ := res.Metrics.Counter("sim_events_total")
	fmt.Printf("pairs traced: %d\n", len(res.Comm.Pairs()))
	fmt.Printf("msgs sent=%d delivered=%d consumed=%d\n",
		res.MsgStats.Sends, res.MsgStats.Delivered, res.MsgStats.Consumed)
	fmt.Printf("kernel events: %d\n", events)

	// Output:
	// pairs traced: 12
	// msgs sent=2000 delivered=2000 consumed=2000
	// kernel events: 9509
}
