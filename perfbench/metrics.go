package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run: what a user waiting for
// a report, a sweep or a fleet rollup sees. Each is the median over the
// run's repetitions.
var endToEnd = []metricDef{
	{"sim_mh_per_s", "machine-hours/s"}, // simulated machine-hours per host second
	{"wall_s", "s"},                     // runner call to last report byte
	{"cpu_s", "s"},                      // process user+sys CPU over the same interval
	{"setup_s", "s"},                    // runner call to the first cell starting
	{"alloc_mb", "MB"},                  // bytes allocated in the repetition
	{"peak_live_mb", "MB"},              // highest live heap marked by a GC
}

// layers are the ledger's CPU attribution buckets: the repository's
// modules, container/heap (the kernel event heap and the pending-task
// queue), background and assist GC work, and everything else.
var layers = []string{
	"sim", "container-heap", "scheduler", "cluster", "core", "autopilot",
	"workload", "rng", "dist", "trace", "streaming", "analysis", "stats",
	"experiments", "engine", "sweep", "fleet", "gc", "other",
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"cpu_s." + l, "s"})
	}
	return append(defs, []metricDef{
		{"ledger.residual_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
		{"sim.events", "count"},
		{"sim.pending_p99", "count"},
		{"sched.attempts", "count"},
		{"sched.placed", "count"},
		{"sched.place_ratio", "ratio"},
		{"sched.score_cache_hit_ratio", "ratio"},
		{"sched.preemptions", "count"},
		{"sched.retries", "count"},
		{"sched.queue_depth_p99", "count"},
		{"usage.windows", "count"},
		{"trace.rows", "count"},
		{"sim.ns_per_event", "ns"},
		{"sched.ns_per_attempt", "ns"},
		{"streaming.ns_per_row", "ns"},
		{"trace.ns_per_row", "ns"},
		{"span.setup_s", "s"},
		{"span.simulate_s", "s"},
		{"span.report_s", "s"},
		{"span.load_recordings_s", "s"},
		{"span.write_dir_s", "s"},
		{"span.read_dir_s", "s"},
		{"span.validate_s", "s"},
		{"engine.cell_s.p50", "s"},
		{"engine.cell_s.p90", "s"},
		{"engine.busy_frac", "ratio"},
	}...)
}()

// harnessSpans are the spans the benchmark records around public calls;
// a workload that makes no such call reports the span as 0.
var harnessSpans = []string{"load_recordings", "write_dir", "read_dir", "validate", "report"}

func metricUnit(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: unregistered metric " + name)
}
