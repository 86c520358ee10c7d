package main

import "cash/internal/bench"

// metricDef names one printed metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are printed by every untraced run. The operation is
// the workload's unit of work: one regeneration of the paper's tables, a
// build, a request, or an engine restart.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
}

// layers are the program's modules the trace attributes self time to,
// plus perfbench itself (the request spans' own time).
var layers = []string{"bench", "minic", "codegen", "core", "vm", "serve", "srv", "store", "perfbench"}

// perLayerMetrics are printed by every traced run; a layer the workload
// does not exercise reads 0.
func perLayerMetrics() []metricDef {
	var defs []metricDef
	for _, sp := range bench.Specs() {
		if sp.InAll {
			defs = append(defs, metricDef{"bench." + sp.ID + "_s", "s", "lower"})
		}
	}
	defs = append(defs,
		metricDef{"bench.figure1_s", "s", "lower"},
		metricDef{"vm.sim_instructions", "count", "lower"},
		metricDef{"vm.mips", "Minstr/s", "higher"},
		metricDef{"vm.step_limit_faults", "count", "lower"},
		metricDef{"vm.new_us", "us", "lower"},
		metricDef{"vm.run_us", "us", "lower"},
		metricDef{"minic.parse_us", "us", "lower"},
		metricDef{"minic.check_us", "us", "lower"},
		metricDef{"codegen.lower_emit_us", "us", "lower"},
		metricDef{"codegen.pass.rce_us", "us", "lower"},
		metricDef{"codegen.pass.hoist_us", "us", "lower"},
		metricDef{"codegen.pass.affine_us", "us", "lower"},
		metricDef{"codegen.pass.chop_us", "us", "lower"},
		metricDef{"codegen.instrs", "count", "lower"},
		metricDef{"codegen.checks_removed", "count", "higher"},
		metricDef{"serve.build_miss_us", "us", "lower"},
		metricDef{"serve.build_hit_us", "us", "lower"},
		metricDef{"serve.run_hit_us", "us", "lower"},
		metricDef{"serve.cache_hit_ratio", "ratio", "higher"},
		metricDef{"serve.run_hit_ratio", "ratio", "higher"},
		metricDef{"serve.cache_evictions", "count", "lower"},
		metricDef{"serve.admission_waits", "count", "lower"},
		metricDef{"serve.pool_recycle_ratio", "ratio", "higher"},
		metricDef{"srv.roundtrip_hot_us", "us", "lower"},
		metricDef{"srv.roundtrip_fresh_us", "us", "lower"},
		metricDef{"srv.wire_us", "us", "lower"},
		metricDef{"srv.shed", "count", "lower"},
		metricDef{"load.late_ms", "ms", "lower"},
		metricDef{"store.open_ms", "ms", "lower"},
		metricDef{"store.get_us", "us", "lower"},
		metricDef{"store.put_us", "us", "lower"},
		metricDef{"store.disk_hits", "count", "higher"},
		metricDef{"store.disk_writes", "count", "lower"},
		metricDef{"core.decode_artifact_us", "us", "lower"},
		metricDef{"core.decode_run_us", "us", "lower"},
		metricDef{"core.encode_artifact_us", "us", "lower"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"trace.spans", "count", "lower"},
		metricDef{"trace.op_p50_ms", "ms", "lower"},
	)
}
