package main

import "fmt"

// metricDef names one reported figure. BENCHMARK.json lists the same names,
// units and directions; TestManifestMatchesHarness keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the eight figures a user of the system would see. The
// regression bound of each is in BENCHMARK.json.
var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
	{"cpu_us_per_req", "us", "lower"},
	{"mrr20", "ratio", "higher"},
	{"rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the figures of single layers, layer = module name.
var perLayer = []metricDef{
	// generator
	{"gen.late_p99_us", "us", "lower"},
	{"gen.backlog_end_ms", "ms", "lower"},
	{"client.sent", "count", "higher"},
	{"client.ok", "count", "higher"},
	{"client.timeouts", "count", "lower"},
	{"client.sla_misses", "count", "lower"},
	{"client.http_errors", "count", "lower"},
	{"client.mismatches", "count", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.p995_ms", "ms", "lower"},
	{"client.max_ms", "ms", "lower"},
	{"client.rate_drift", "ratio", "higher"},
	// socket
	{"net.roundtrip_self_us", "us", "lower"},
	// serving, scraped
	{"serving.request_mean_us", "us", "lower"},
	{"serving.stage_store_mean_us", "us", "lower"},
	{"serving.stage_candidates_mean_us", "us", "lower"},
	{"serving.stage_score_mean_us", "us", "lower"},
	{"serving.stage_filter_mean_us", "us", "lower"},
	{"serving.stage_encode_mean_us", "us", "lower"},
	{"serving.stage_batch_wait_mean_us", "us", "lower"},
	{"serving.stage_sum_ratio", "ratio", "higher"},
	{"serving.edge_unaccounted_us", "us", "lower"},
	{"serving.idempotency_entries", "count", "lower"},
	{"serving.idempotent_replays", "count", "lower"},
	{"serving.padded_ratio", "ratio", "lower"},
	{"serving.cache_hit_ratio", "ratio", "higher"},
	{"serving.batch_mean_size", "count", "higher"},
	{"serving.errors", "count", "lower"},
	{"serving.active_sessions", "count", "lower"},
	// serving, traced
	{"serving.http_self_us", "us", "lower"},
	{"serving.recommend_self_us", "us", "lower"},
	{"serving.handler_allocs_per_req", "count", "lower"},
	// fastjson
	{"fastjson.decode_us", "us", "lower"},
	{"fastjson.encode_us", "us", "lower"},
	{"fastjson.resp_bytes", "B", "lower"},
	// kvstore
	{"kvstore.get_us", "us", "lower"},
	{"kvstore.put_us", "us", "lower"},
	{"kvstore.delete_us", "us", "lower"},
	{"kvstore.gets_per_req", "count", "lower"},
	{"kvstore.puts_per_req", "count", "lower"},
	{"kvstore.deletes_per_req", "count", "lower"},
	{"kvstore.hit_ratio", "ratio", "higher"},
	// core
	{"core.candidates_us", "us", "lower"},
	{"core.score_us", "us", "lower"},
	{"core.postings_per_query", "count", "lower"},
	{"core.tail_len_mean", "count", "lower"},
	{"core.neighbors_mean", "count", "lower"},
	// index, synth
	{"synth.generate_s", "s", "lower"},
	{"index.build_s", "s", "lower"},
	{"index.save_s", "s", "lower"},
	{"index.load_s", "s", "lower"},
	{"index.file_mb", "MB", "lower"},
	{"index.heap_mb", "MB", "lower"},
	{"server.start_s", "s", "lower"},
	// runtime
	{"runtime.gc_pause_ms_total", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_bytes_per_req", "B", "lower"},
	{"server.goroutines", "count", "lower"},
	{"server.rss_mb", "MB", "lower"},
	// trace bookkeeping
	{"trace.p1_socket_us", "us", "lower"},
	{"trace.p2_handler_us", "us", "lower"},
	{"trace.p3_recommend_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.unaccounted_ratio", "ratio", "lower"},
}

// metricValue is one figure as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pack turns measured values into the result line's metrics, insisting that
// every metric of defs was measured and nothing else was.
func pack(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d values for %d metrics", len(values), len(defs))
	}
	return out, nil
}

// ratio is a/b, 0 when b is 0: a mechanism that is switched off has no
// traffic to take a ratio of.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
