package main

// metricSpec is one metric's entry in BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
}

// perLayer lists every per-layer metric the traced run reports, for every
// workload (a layer a workload does not exercise reports 0). README.md
// says which end-to-end metric each should move and on which workload.
var perLayer = []metricSpec{
	{"server.wire_us", "us", "lower"},
	{"parser.goal_us", "us", "lower"},
	{"parser.facts_per_s", "1/s", "higher"},
	{"service.self_us", "us", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.evictions", "count", "lower"},
	{"service.revalidations", "count", "lower"},
	{"resource.rejected", "count", "lower"},
	{"optimize.prepare_us", "us", "lower"},
	{"optimize.calls", "count", "lower"},
	{"eval.execute_us", "us", "lower"},
	{"eval.tuples_derived", "count", "lower"},
	{"eval.lookups", "count", "lower"},
	{"eval.iterations", "count", "lower"},
	{"eval.blocks", "count", "lower"},
	{"eval.kernel_compiles", "count", "lower"},
	{"eval.kernel_fallbacks", "count", "lower"},
	{"store.insert_ns_per_fact", "ns", "lower"},
	{"store.lookup_ns", "ns", "lower"},
	{"term.intern_ns", "ns", "lower"},
	{"ivm.maintain_us", "us", "lower"},
	{"ivm.view_probe_us", "us", "lower"},
	{"ivm.delta_rows_per_load", "count", "lower"},
	{"ivm.incremental_rounds", "count", "lower"},
	{"ivm.scratch_fallbacks", "count", "lower"},
	{"ivm.view_answer_ratio", "ratio", "higher"},
	{"wal.append_us", "us", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"segment.checkpoint_ms", "ms", "lower"},
	{"segment.flushes", "count", "lower"},
	{"segment.bytes_per_user_byte", "ratio", "lower"},
	{"segment.boot_attach_ms", "ms", "lower"},
	{"segment.bloom_prunes", "count", "higher"},
	{"segment.zone_prunes", "count", "higher"},
	{"segment.row_bloom_skips", "count", "higher"},
	{"repl.ship_apply_ms", "ms", "lower"},
	{"repl.lag_epochs_p50", "count", "lower"},
	{"repl.lag_retries", "count", "lower"},
	{"repl.seeds", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"share.server_pct", "%", "lower"},
	{"share.service_pct", "%", "lower"},
	{"share.parser_pct", "%", "lower"},
	{"share.optimize_pct", "%", "lower"},
	{"share.eval_pct", "%", "lower"},
	{"share.store_pct", "%", "lower"},
	{"share.ivm_pct", "%", "lower"},
	{"share.wal_pct", "%", "lower"},
	{"share.segment_pct", "%", "lower"},
}
