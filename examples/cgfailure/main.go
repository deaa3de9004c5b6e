// Failure scenario on NPB CG: a node fails mid-run. With group-based
// checkpointing only its group rolls back and out-of-group peers replay
// their logged messages; with global coordinated checkpointing every
// process rolls back. This example quantifies the paper's motivating
// argument — "recovery by a global restart would lose all the useful work
// done by normal processes".
//
// It also demonstrates a user-defined gb.Observer: the failure report
// prints each run's evaluated failures once the run completes, composing
// with the built-in observers.
//
//	go run ./examples/cgfailure
package main

import (
	"context"
	"fmt"
	"log"

	"repro/gb"
)

// failureReport prints a run's injected failures after the run — a
// user-defined observer: anything with BeforeRun/AfterRun slots into
// gb.WithObserver alongside the built-ins.
type failureReport struct{ setup string }

func (o failureReport) BeforeRun(*gb.RunEnv) gb.Tracer { return nil }

func (o failureReport) AfterRun(res *gb.Result) {
	for _, out := range res.Failures {
		fmt.Printf("\n%s — node %d fails at %v, taking group %d (%v) down:\n",
			o.setup, out.FailedNode, out.At, out.FailedGroup, out.FailedRanks)
		fmt.Printf("  work lost (failed group rolls back):  %v\n", out.WorkLossGrp)
		fmt.Printf("  work lost if restart were global:     %v\n", out.WorkLossGlb)
		fmt.Printf("  work saved by group-based recovery:   %v\n", out.WorkSaved())
		fmt.Printf("  replay to the group: %d bytes over %d peer sessions\n",
			out.ReplayBytes, out.ReplayPairs)
	}
}

func main() {
	ctx := context.Background()

	const n = 16
	wl := gb.CG(n)
	wl.NA, wl.NIter = 30000, 60 // shrunk for a fast example

	// Form groups from the streaming communication matrix (the CG grid
	// rows merge). Mode None runs the bare application for tracing.
	comm := gb.NewCommObserver()
	if _, err := gb.Run(ctx, wl,
		gb.WithMode(gb.None), gb.WithSeed(1),
		gb.WithObserver(comm)); err != nil {
		log.Fatal(err)
	}
	f := gb.GroupsFromComm(comm.Matrix(), n, 0)
	fmt.Printf("CG groups from trace: %v\n", f.Groups)

	// One failure, after the only checkpoint. The failure process is
	// seeded apart from the run, so the same node fails at the same
	// instant under both protocols.
	fail := gb.PoissonFailures(12)
	fail.Seed, fail.Max = 7, 1
	for _, setup := range []struct {
		name string
		opts []gb.Option
	}{
		{"group-based (GP)", []gb.Option{gb.WithMode(gb.GP), gb.WithFormation(f)}},
		{"global (NORM)", []gb.Option{gb.WithMode(gb.NORM)}},
	} {
		opts := append([]gb.Option{
			gb.WithSeed(3),
			gb.WithSchedule(gb.Schedule{At: 4 * gb.Second}),
			gb.WithFailures(fail),
			gb.WithObserver(failureReport{setup.name}),
		}, setup.opts...)
		if _, err := gb.Run(ctx, wl, opts...); err != nil {
			log.Fatal(err)
		}
	}
}
