package main

// metricDef names one reported metric. The lists below are the ones in
// BENCHMARK.json, in the same order; README.md gives, for each layer
// metric, the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer metrics a workload does not exercise (trace.open_s outside
// trace-replay, fleet.* outside sweep, ...) are reported as 0.
var perLayer = []metricDef{
	{"topology.build_s", "s", "lower"},
	{"netsim.simulate_s", "s", "lower"},
	{"netsim.events", "count", "lower"},
	{"netsim.host_us_per_event", "us", "lower"},
	{"netsim.recomputes_dirty", "count", "lower"},
	{"netsim.recompute_links_mean", "links", "lower"},
	{"netsim.parallel.windows", "count", "lower"},
	{"netsim.parallel.barrier_waits", "count", "lower"},
	{"scope.jobs_submitted", "count", "higher"},
	{"scope.vertices_started", "count", "higher"},
	{"cosmos.transfer_committed_bytes", "bytes", "higher"},
	{"trace.records", "count", "higher"},
	{"trace.compress_s", "s", "lower"},
	{"trace.live.buffered_peak", "records", "lower"},
	{"trace.live.watermark_lag_mean_s", "s", "lower"},
	{"pipeline.backpressure_waits", "count", "lower"},
	{"trace.open_s", "s", "lower"},
	{"core.analyze_s", "s", "lower"},
	{"core.fused_tail_s", "s", "lower"},
	{"analyze.index_s", "s", "lower"},
	{"analyze.figures_s", "s", "lower"},
	{"analyze.congestion_s", "s", "lower"},
	{"analyze.tasks", "count", "lower"},
	{"analyze.stream.peak_buffered_records", "records", "lower"},
	{"tomo.solve_s", "s", "lower"},
	{"tomo.pivots", "count", "lower"},
	{"tomo.refactorizations", "count", "lower"},
	{"tomo.warm_frac", "ratio", "higher"},
	{"tomo.windows_fallback", "count", "lower"},
	{"fleet.overlap", "ratio", "higher"},
	{"fleet.run_wall_s", "s", "lower"},
	{"fleet.admission_waits", "count", "lower"},
	{"fleet.topo_cache_hits", "count", "higher"},
	{"fleet.pool.queue_peak", "count", "lower"},
	{"obs.overhead_s", "s", "lower"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"bench.trace_overhead_s", "s", "lower"},
}
