package main

import (
	"math"

	"tcb/internal/stats"
)

// metricDef names one reported number. BENCHMARK.json repeats these tables
// (the self-test keeps the two in step); Bound is meaningful for end-to-end
// metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the service sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sat_rps", "req/s", "higher"},
	{"sat_tok_per_s", "tok/s", "higher"},
	{"lat_p90_ms", "ms", "lower"},
	{"goodput_rps", "req/s", "higher"},
	{"utility_per_s", "1/tok/s", "higher"},
	{"ontime_pct", "%", "higher"},
	{"good_tenants_ontime_pct", "%", "higher"},
	{"allocs_per_req", "count", "lower"},
	{"bytes_per_req", "B", "lower"},
	{"mem_sys_mb", "MB", "lower"},
}

// perLayer is what the traced run reports, one group per module.
var perLayer = []metricDef{
	{"cluster.submit_us_p50", "us", "lower"},
	{"cluster.route_imbalance_pct", "%", "lower"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.probe_failures", "count", "lower"},

	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.deliver_us_p50", "us", "lower"},
	{"serve.schedule_us_per_batch", "us", "lower"},
	{"serve.cleanup_us_per_batch", "us", "lower"},
	{"serve.compute_share_pct", "%", "higher"},
	{"serve.reqs_per_batch", "count", "higher"},
	{"serve.missed", "count", "lower"},
	{"serve.refused", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.retried", "count", "lower"},
	{"serve.http_overhead_us", "us", "lower"},

	{"fair.stamp_ns", "ns", "lower"},
	{"fair.limiter_take_ns", "ns", "lower"},
	{"fair.jain_goodput", "ratio", "higher"},
	{"fair.flooder_share_pct", "%", "lower"},

	{"sched.schedule_us_p50", "us", "lower"},
	{"sched.schedule_us_p99", "us", "lower"},
	{"sched.pool_len_mean", "count", "lower"},
	{"sched.chosen_per_call", "count", "higher"},

	{"batch.pack_us", "us", "lower"},
	{"batch.fill_pct", "%", "higher"},
	{"batch.padded_tok_pct", "%", "lower"},

	{"engine.prepare_us_per_batch", "us", "lower"},
	{"engine.run_ms_per_batch", "ms", "lower"},
	{"engine.us_per_token", "us", "lower"},
	{"engine.tok_per_s", "tok/s", "higher"},
	{"engine.steps_per_batch", "count", "lower"},
	{"engine.occupancy_pct", "%", "higher"},
	{"engine.slot_idle_steps_per_batch", "count", "lower"},
	{"engine.refill_admitted_pct", "%", "higher"},
	{"engine.retired_early_pct", "%", "higher"},

	{"model.encode_us_per_token", "us", "lower"},
	{"model.decode_us_per_step_seg", "us", "lower"},
	{"model.encode_share_pct", "%", "lower"},
	{"model.decode_share_pct", "%", "lower"},
	{"model.insert_segment_us", "us", "lower"},
	{"model.remove_segment_us", "us", "lower"},
	{"model.build_prefix_kv_us", "us", "lower"},

	{"tensor.peak_gflops", "GFLOP/s", "higher"},
	{"tensor.stream_gbps", "GB/s", "higher"},
	{"tensor.gemm_gflops_wide", "GFLOP/s", "higher"},
	{"tensor.gemm_gflops_scalar", "GFLOP/s", "higher"},
	{"tensor.gemm_gflops_int8", "GFLOP/s", "higher"},
	{"tensor.gemm_roofline_pct", "%", "higher"},
	{"tensor.attend_gflops", "GFLOP/s", "higher"},
	{"tensor.attend_cached_us_per_seg", "us", "lower"},
	{"tensor.wide_calls_per_req", "count", "lower"},
	{"tensor.int8_calls_per_req", "count", "lower"},
	{"tensor.scalar_calls_per_req", "count", "lower"},
	{"tensor.pool_run_overhead_ns", "ns", "lower"},

	{"prefixcache.hit_pct", "%", "higher"},
	{"prefixcache.tokens_saved_pct", "%", "higher"},
	{"prefixcache.evictions", "count", "lower"},
	{"prefixcache.resident_mb", "MB", "lower"},
	{"prefixcache.acquire_us", "us", "lower"},
	{"prefixcache.insert_us", "us", "lower"},
	{"prefixcache.affinity_pct", "%", "higher"},

	{"gpu.peak_reserved_mb", "MB", "lower"},
	{"gpu.ledger_ns_per_op", "ns", "lower"},
	{"gpu.outstanding_after_drain", "count", "lower"},

	{"cost.batch_mape_pct", "%", "lower"},
	{"cost.batch_pearson", "ratio", "higher"},
	{"cost.predict_ns", "ns", "lower"},

	{"bench.gen_lag_p99_ms", "ms", "lower"},
	{"bench.late_sends_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.samples", "count", "higher"},
}

// metricValue is one emitted number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's numbers against a table of definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a value; non-finite values are stored as 0 so the result line
// is always valid JSON (the self-test asserts finiteness where it matters).
func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = v
}

// result renders every defined metric, in table order, with its unit.
func (m *metricSet) result() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

// minTailSamples is how many samples must lie beyond a reported percentile.
const minTailSamples = 10

// tailPercentile returns the value at percentile want, or — when fewer than
// minTailSamples samples lie beyond it — at the highest percentile that has
// that many beyond it, which it also returns. An empty sample yields (0, 0).
func tailPercentile(s *stats.Sample, want float64) (value, used float64) {
	n := s.N()
	if n == 0 {
		return 0, 0
	}
	used = want
	if highest := 100 * (1 - float64(minTailSamples)/float64(n)); highest < used {
		used = math.Max(highest, 50)
	}
	return s.Percentile(used), used
}

// ratio returns 100·a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// div returns a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (0 when empty) without reordering xs.
func median(xs []float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	if s.N() == 0 {
		return 0
	}
	return s.Percentile(50)
}
