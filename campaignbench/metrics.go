package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the tests hold the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_s_p50", "s", "lower"},
	{"cpu_s_per_campaign", "CPU-s", "lower"},
	{"cells_per_s", "cells/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"model_abs_err", "miss_rate", "lower"},
}

// spanNames are the harness spans reported as self seconds per campaign.
var spanNames = []string{
	"experiments.fig5", "experiments.fig6", "experiments.study_calibrations",
	"experiments.fig9", "experiments.fig11", "experiments.build_profiles",
	"core.calibrate_capacity", "report.render", "store.open", "store.close",
}

// tailMetrics are the latency distributions reported as a median and a
// tail; each tail comes with its percentile and sample count.
var tailMetrics = []string{
	"lab.queue_wait_s", "lab.cell_run_s", "store.get_s", "store.put_s",
	"store.fsync_s", "remote.get_s", "remote.server_s",
}

// perLayer are the traced run's metrics, in print order.
var perLayer = func() []metricDef {
	ds := []metricDef{{"campaigns", "count", "higher"}, {"trace.overhead_ratio", "ratio", "lower"}}
	for _, s := range spanNames {
		ds = append(ds, metricDef{s + "_s", "s", "lower"})
	}
	ds = append(ds, metricDef{"harness.self_s", "s", "lower"})
	for _, l := range layers {
		ds = append(ds, metricDef{l + ".cpu_s", "CPU-s", "lower"})
	}
	for _, g := range cumGroups {
		ds = append(ds, metricDef{g.metric, "CPU-s", "lower"})
	}
	ds = append(ds, metricDef{"profile.cpu_s", "CPU-s", "lower"})
	for _, c := range []metricDef{
		{"lab.cells", "count", "higher"}, {"lab.computed", "count", "lower"},
		{"lab.memo_hits", "count", "higher"}, {"lab.hot_hits", "count", "higher"},
		{"lab.disk_hits", "count", "higher"}, {"lab.remote_hits", "count", "higher"},
		{"lab.persisted", "count", "lower"}, {"lab.served_ratio", "ratio", "higher"},
		{"lab.resolve_disk_s_p50", "s", "lower"}, {"lab.resolve_remote_s_p50", "s", "lower"},
		{"lab.workers_busy_frac", "ratio", "higher"},
		{"store.gets", "count", "lower"}, {"store.puts", "count", "lower"},
		{"store.snapshot_hits", "count", "higher"}, {"store.slow_gets", "count", "lower"},
		{"store.hot_hits", "count", "higher"}, {"store.group_commits", "count", "lower"},
		{"store.grouped_appends", "count", "lower"},
		{"remote.gets", "count", "lower"}, {"remote.hits", "count", "higher"},
		{"remote.misses", "count", "lower"}, {"remote.retries", "count", "lower"},
		{"remote.corrupt", "count", "lower"}, {"remote.breaker_opens", "count", "lower"},
		{"remote.singleflight_hits", "count", "higher"}, {"remote.hit_ratio", "ratio", "higher"},
		{"engine.runs", "count", "lower"}, {"engine.demand_accesses", "count", "lower"},
		{"engine.prefetches_issued", "count", "lower"},
		{"engine.sim_accesses_per_cpu_s", "accesses/CPU-s", "higher"},
		{"mem.prefetches_per_access", "ratio", "lower"},
		{"runtime.alloc_mb_per_campaign", "MiB", "lower"},
		{"runtime.gc_cycles_per_campaign", "count", "lower"},
	} {
		ds = append(ds, c)
	}
	for _, t := range tailMetrics {
		ds = append(ds, metricDef{t + "_p50", "s", "lower"}, metricDef{t + "_tail", "s", "lower"},
			metricDef{t + "_tail_pct", "pct", "higher"}, metricDef{t + "_n", "count", "higher"})
	}
	return ds
}()
