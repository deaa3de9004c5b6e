package main

// metric declares one number the benchmark reports. These lists and
// BENCHMARK.json must agree; TestBenchmarkJSON checks that they do.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd is what a user of the simulator sees. Each is the median over
// the untraced passes of one run, and every workload reports all of them.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// layers names the buckets a CPU profile is folded into; each gets a
// "<layer>.self_share" metric. fold.go maps Go packages onto them.
var layers = []string{
	"sim", "mpi", "core", "mlog", "trace", "group", "failure", "harness", "app",
	"gbd", "nethttp", "json", "sha256", "gc", "sched", "other",
}

// perLayer comes from a traced run. A layer a workload never enters reads 0.
var perLayer = append([]metric{
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.partitions", "count", "higher", 0},
	{"sim.lookahead_stalls", "count", "lower", 0},
	{"sim.partition_speedup", "ratio", "higher", 0},
	{"mpi.sends", "count", "lower", 0},
	{"mpi.send_mb", "MB", "lower", 0},
	{"core.ckpts", "count", "lower", 0},
	{"core.restart_s", "s", "lower", 0},
	{"mlog.flush_mb", "MB", "lower", 0},
	{"trace.pass_s", "s", "lower", 0},
	{"group.form_s", "s", "lower", 0},
	{"group.groups", "count", "higher", 0},
	{"failure.injected", "count", "lower", 0},
	{"runner.cells", "count", "higher", 0},
	{"runner.cell_p50_s", "s", "lower", 0},
	{"runner.cell_max_s", "s", "lower", 0},
	{"runner.busy_frac", "ratio", "higher", 0},
	{"scenario.load_s", "s", "lower", 0},
	{"gbd.cold_s", "s", "lower", 0},
	{"gbd.cold_a_s", "s", "lower", 0},
	{"gbd.cold_b_s", "s", "lower", 0},
	{"gbd.hit_p50_ms", "ms", "lower", 0},
	{"gbd.hit_p99_ms", "ms", "lower", 0},
	{"gbd.hit_rps", "1/s", "higher", 0},
	{"gbd.cache_hits", "count", "higher", 0},
	{"gbd.cache_misses", "count", "lower", 0},
	{"gbd.hit_bytes", "bytes", "lower", 0},
	{"cpu_s", "s", "lower", 0},
	{"alloc_mb", "MB", "lower", 0},
	{"mallocs_m", "1e6", "lower", 0},
	{"gc_cycles", "count", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
}, shareMetrics()...)

func shareMetrics() []metric {
	out := make([]metric, len(layers))
	for i, l := range layers {
		out[i] = metric{l + ".self_share", "ratio", "lower", 0}
	}
	return out
}
