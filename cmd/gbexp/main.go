// gbexp reproduces the paper's tables and figures by id and prints the rows
// or series each one reports, or runs a declarative scenario spec. It is
// built entirely on the public gb facade.
//
// Usage:
//
//	gbexp -list                 # registered experiment ids and scenarios
//	gbexp -exp fig1             # one experiment
//	gbexp -exp all              # everything (paper-scale; takes a few minutes)
//	gbexp -exp all -parallel 8  # fan runs across 8 workers (same output)
//	gbexp -exp fig5 -quick      # reduced problem sizes
//	gbexp -exp fig2 -timelines  # include ASCII trace diagrams
//	gbexp -scenario spec.json   # run a declarative scenario file
//	gbexp -scenario modern      # run a built-in scenario profile
//
// Simulation runs are independent and deterministically seeded, so -parallel
// only changes wall-clock time: tables are byte-identical at any worker
// count. Interrupting gbexp (SIGINT/SIGTERM) cancels the in-flight runs
// cleanly through the context.
//
// Seeds are pure inputs everywhere: every figure experiment is a scenario
// sweep, and a spec's "seed" field (0 = the deterministic default 1) plus a
// cell's position in the matrix fully determine the cell. Nothing ever
// seeds from the wall clock — rerunning any command reproduces its output
// byte-for-byte, which is what lets `gbcheck` print a reproducing seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/gb"
	"repro/internal/viz"
)

func main() {
	var (
		list = flag.Bool("list", false,
			"print registered experiment ids and built-in scenario names, then exit")
		exp = flag.String("exp", "all",
			"experiment id: "+strings.Join(gb.ExperimentIDs(), " ")+" | all")
		scn = flag.String("scenario", "",
			"run a declarative scenario instead of -exp: a JSON spec file or a built-in profile ("+
				strings.Join(gb.ScenarioNames(), ", ")+")")
		quick     = flag.Bool("quick", false, "reduced problem sizes and repetitions")
		reps      = flag.Int("reps", 0, "repetitions per point (0 = paper's 5, or 2 with -quick)")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "simulation runs to execute concurrently (1 = serial)")
		timelines = flag.Bool("timelines", false, "print Figure 2 ASCII trace diagrams")
		tsv       = flag.Bool("tsv", false, "emit tab-separated values instead of aligned tables")
		plot      = flag.Bool("plot", false, "also render each table as an ASCII chart")
		cellMet   = flag.Bool("cell-metrics", false,
			"with -scenario: stream the sweep with a per-cell metrics snapshot and print each cell's metrics (see OBSERVABILITY.md)")
		jobDetail = flag.Bool("job-detail", false,
			"with a jobs -scenario: print each cluster cell's per-job lifecycle table after the aggregate table")
	)
	flag.Parse()
	plotTables = *plot

	if *list {
		printList()
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *scn != "" {
		// A scenario spec carries its own scales, sizes, and reps; the
		// figure-oriented flags would be silently ignored, so reject them
		// loudly instead.
		var clash []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "quick", "reps", "timelines":
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			fmt.Fprintf(os.Stderr, "gbexp: %s cannot be combined with -scenario (the spec sets its own sizes and reps)\n",
				strings.Join(clash, " "))
			os.Exit(2)
		}
		if err := runScenario(ctx, *scn, *parallel, *tsv, *cellMet, *jobDetail); err != nil {
			fmt.Fprintf(os.Stderr, "gbexp: scenario %s: %v\n", *scn, err)
			os.Exit(1)
		}
		return
	}
	if *cellMet {
		fmt.Fprintln(os.Stderr, "gbexp: -cell-metrics requires -scenario (figure experiments report their own tables)")
		os.Exit(2)
	}
	if *jobDetail {
		fmt.Fprintln(os.Stderr, "gbexp: -job-detail requires a -scenario with a jobs block")
		os.Exit(2)
	}

	o := gb.ExperimentOptions{Quick: *quick, Reps: *reps, Workers: *parallel}
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = gb.ExperimentIDs()
	}
	for _, id := range ids {
		if err := runOne(ctx, strings.TrimSpace(id), o, *timelines, *tsv); err != nil {
			fmt.Fprintf(os.Stderr, "gbexp: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// printList enumerates everything runnable: the experiment registry with
// titles, and the built-in scenario profiles.
func printList() {
	fmt.Println("experiments (-exp):")
	for _, e := range gb.Experiments() {
		fmt.Printf("  %-8s %s\n", e.ID, e.Title)
	}
	fmt.Println("built-in scenarios (-scenario):")
	for _, name := range gb.ScenarioNames() {
		fmt.Printf("  %s\n", name)
	}
}

// runScenario resolves arg as a built-in profile name first, then as a spec
// file path, and runs the sweep. With cellMetrics the sweep streams instead:
// each cell carries a metrics snapshot, printed per cell in matrix order.
// With jobDetail each cluster cell's per-job lifecycle table follows the
// aggregate table, also in matrix order.
func runScenario(ctx context.Context, arg string, workers int, tsv, cellMetrics, jobDetail bool) error {
	s, ok := gb.BuiltinScenario(arg)
	if !ok {
		var err error
		s, err = gb.LoadScenario(arg)
		if err != nil {
			return err
		}
	}
	if cellMetrics {
		return streamCellMetrics(ctx, s, workers)
	}
	if jobDetail {
		return streamJobDetail(ctx, s, workers, tsv)
	}
	t, err := gb.SweepTable(ctx, s, gb.WithWorkers(workers))
	if err != nil {
		return err
	}
	emit(tsv, t)
	return nil
}

// streamJobDetail runs the sweep once, prints the aggregate table, then each
// cluster cell's per-job table in matrix order — byte-identical at any
// worker count, like every other gbexp mode.
func streamJobDetail(ctx context.Context, s *gb.Scenario, workers int, tsv bool) error {
	var cells []gb.Cell
	for c, err := range gb.Sweep(ctx, s, gb.WithWorkers(workers)) {
		if err != nil {
			return err
		}
		cells = append(cells, c)
	}
	sortCells(cells)
	sawJobs := false
	for _, c := range cells {
		if c.Result.Jobs == nil {
			continue
		}
		sawJobs = true
		fmt.Printf("# cell nodes=%d mode=%s rep=%d seed=%d\n", c.Scale, c.Mode, c.Rep, c.Seed)
		emit(tsv, c.Result.Jobs.Table())
	}
	if !sawJobs {
		return fmt.Errorf("-job-detail needs a scenario with a jobs block (spec %q has none)", s.Name)
	}
	return nil
}

// sortCells orders finished cells in matrix order (scale, mode, rep).
func sortCells(cells []gb.Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Scale != b.Scale {
			return a.Scale < b.Scale
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		return a.Rep < b.Rep
	})
}

// streamCellMetrics runs the sweep with per-cell metrics armed and prints
// each cell's snapshot. Cells finish in any order, so they are collected
// and printed in matrix order — the output is byte-identical at any worker
// count, like every other gbexp mode.
func streamCellMetrics(ctx context.Context, s *gb.Scenario, workers int) error {
	var cells []gb.Cell
	for c, err := range gb.Sweep(ctx, s, gb.WithWorkers(workers), gb.WithCellMetrics()) {
		if err != nil {
			return err
		}
		cells = append(cells, c)
	}
	sortCells(cells)
	for _, c := range cells {
		fmt.Printf("# cell procs=%d mode=%s rep=%d seed=%d\n", c.Scale, c.Mode, c.Rep, c.Seed)
		m := c.Result.Metrics
		for _, cv := range m.Counters {
			fmt.Printf("%s %d\n", cv.Name, cv.Value)
		}
		for _, gv := range m.Gauges {
			fmt.Printf("%s %g\n", gv.Name, gv.Value)
		}
		for _, hv := range m.Histograms {
			fmt.Printf("%s count=%d p50=%g p99=%g max=%g\n", hv.Name, hv.Count, hv.P50, hv.P99, hv.Max)
		}
	}
	return nil
}

var plotTables bool

func emit(tsv bool, tables ...*gb.Table) {
	for _, t := range tables {
		if t == nil {
			continue
		}
		if tsv {
			fmt.Println("# " + t.Title)
			fmt.Print(t.TSV())
		} else {
			fmt.Println(t.String())
		}
		if plotTables {
			if p := tableToPlot(t); p != nil {
				fmt.Println(p.Render())
			}
		}
	}
}

// tableToPlot converts a numeric table (first column = x) to a chart.
// Cells of the form "mean±σ" plot their mean; non-numeric columns are
// skipped. Returns nil if nothing is plottable.
func tableToPlot(t *gb.Table) *viz.Plot {
	if len(t.Rows) < 2 || len(t.Columns) < 2 {
		return nil
	}
	parse := func(cell string) (float64, bool) {
		if i := strings.IndexRune(cell, '±'); i >= 0 {
			cell = cell[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		return v, err == nil
	}
	var xs []float64
	for _, row := range t.Rows {
		v, ok := parse(row[0])
		if !ok {
			return nil
		}
		xs = append(xs, v)
	}
	p := &viz.Plot{Title: t.Title, XLabel: t.Columns[0]}
	for col := 1; col < len(t.Columns); col++ {
		var ys []float64
		ok := true
		for _, row := range t.Rows {
			if col >= len(row) {
				ok = false
				break
			}
			v, good := parse(row[col])
			if !good {
				ok = false
				break
			}
			ys = append(ys, v)
		}
		if ok {
			p.Series = append(p.Series, viz.Series{Label: t.Columns[col], X: xs, Y: ys})
		}
	}
	if len(p.Series) == 0 {
		return nil
	}
	return p
}

func runOne(ctx context.Context, id string, o gb.ExperimentOptions, timelines, tsv bool) error {
	// fig2 with -timelines needs the trace diagrams the registry's uniform
	// table interface does not carry.
	if id == "fig2" && timelines {
		r, err := gb.Fig2(ctx, o)
		if err != nil {
			return err
		}
		emit(tsv, r.Table)
		var keys []int
		for k := range r.Timelines {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, n := range keys {
			fmt.Printf("--- %d processes (P0-P3, '#'=progress in ckpt, '_'=gap) ---\n%s\n", n, r.Timelines[n])
		}
		return nil
	}
	e, ok := gb.LookupExperiment(id)
	if !ok {
		return fmt.Errorf("unknown experiment id %q (have %s)", id, strings.Join(gb.ExperimentIDs(), " "))
	}
	tables, err := e.Run(ctx, o)
	if err != nil {
		return err
	}
	emit(tsv, tables...)
	return nil
}
