package main

// metricSpec names a metric of the result and its unit.
type metricSpec struct{ name, unit string }

// e2eMetrics lists the end-to-end metrics of an untraced run, in
// BENCHMARK.json order; README.md defines each per workload.
var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ns_per_op", "ns"},
}

// layerMetrics lists the per-layer metrics of a traced run, in
// BENCHMARK.json order. Every traced run prints all of them; a layer a
// workload does not exercise reads 0. README.md maps each to the
// end-to-end metric it should move.
var layerMetrics = []metricSpec{
	{"dataplane.sendmany_p50_ms", "ms"},
	{"dataplane.sendmany_p99_ms", "ms"},
	{"dataplane.hops", "count"},
	{"dataplane.reports", "count"},
	{"dataplane.allocs_per_hop", "count"},
	{"dataplane.process_ns", "ns"},
	{"dataplane.route_ns", "ns"},
	{"dataplane.packet_marshal_ns", "ns"},
	{"dataplane.packet_unmarshal_ns", "ns"},
	{"dataplane.telemetry_ns_per_hop", "ns"},
	{"dataplane.blind_ns_per_hop", "ns"},
	{"dataplane.fault_ms", "ms"},
	{"core.decode_ns", "ns"},
	{"core.encode_ns", "ns"},
	{"core.visit_ns", "ns"},
	{"core.header_bytes", "bytes"},
	{"verify.epoch_start_ms", "ms"},
	{"verify.epoch_end_ms", "ms"},
	{"verify.confirmed", "count"},
	{"verify.base_confirmed", "count"},
	{"verify.unexplained", "count"},
	{"verify.violations", "count"},
	{"verify.divergences", "count"},
	{"verify.detect_hops_mean", "hops"},
	{"verify.base_detect_hops_mean", "hops"},
	{"collectorsvc.send_ns", "ns"},
	{"collectorsvc.client_queue_ms", "ms"},
	{"collectorsvc.wire_p50_ms", "ms"},
	{"collectorsvc.wire_p99_ms", "ms"},
	{"collectorsvc.ack_gap_max_ms", "ms"},
	{"collectorsvc.frames_per_write", "count"},
	{"collectorsvc.reports_per_ack", "count"},
	{"collectorsvc.journal_rotations", "count"},
	{"collectorsvc.journal_bytes_per_report", "bytes"},
	{"collectorsvc.journal_appends", "count"},
	{"collectorsvc.queue_depth_max", "count"},
	{"collectorsvc.queue_dropped", "count"},
	{"collectorsvc.client_dropped", "count"},
	{"collectorsvc.retransmits", "count"},
	{"collectorsvc.dupes", "count"},
	{"collectorsvc.dedup_ratio", "ratio"},
	{"collectorsvc.drain_ms", "ms"},
	{"bench.generator_late_p99_ms", "ms"},
	{"bench.repeated_share", "ratio"},
	{"bench.unit_self_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// selfPct is the share of a root span's time not covered by the layer
// spans under it: time the benchmark's own loop spent between calls.
func selfPct(agg map[string]*spanStats, root string) float64 {
	st := agg[root]
	if st == nil || st.totalN == 0 {
		return 0
	}
	return 100 * float64(st.selfN) / float64(st.totalN)
}

// spanP returns the p-th percentile of a span's durations in ms.
func spanP(agg map[string]*spanStats, name string, p float64) float64 {
	st := agg[name]
	if st == nil {
		return 0
	}
	return percentileOr(st.durMS, p)
}
