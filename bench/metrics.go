package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one row of the benchmark's metric catalogue. The same
// rows are listed in ../BENCHMARK.json (TestBenchmarkJSONMatchesCatalogue
// keeps the two from drifting) and explained in README.md.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the library or the service would
// see; every untraced run reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p90_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced pass; every
// traced run reports all of them, 0 standing for "this workload does
// not exercise the layer" (see README.md, "Reading a traced run").
var perLayer = []metricDef{
	// client / net (svc_*)
	{"client.gen_lag_p50_us", "us", "lower", 0},
	{"client.gen_lag_p99_us", "us", "lower", 0},
	{"client.send_us_mean", "us", "lower", 0},
	{"client.wait_p50_us", "us", "lower", 0},
	{"client.lat_p99_us", "us", "lower", 0},
	{"client.lat_p999_us", "us", "lower", 0},
	{"client.over_1ms_ratio", "ratio", "lower", 0},
	{"client.resp_per_read", "count", "higher", 0},
	{"client.cpu_us_per_op", "us", "lower", 0},
	{"net.residual_p50_us", "us", "lower", 0},
	// kvserver, read over the wire (STATS stages, METRICS deltas)
	{"kvserver.queue_ns_mean", "ns", "lower", 0},
	{"kvserver.parse_ns_mean", "ns", "lower", 0},
	{"kvserver.execute_ns_mean", "ns", "lower", 0},
	{"kvserver.degrade_ns_mean", "ns", "lower", 0},
	{"kvserver.write_ns_mean", "ns", "lower", 0},
	{"kvserver.execute_ns_p99", "ns", "lower", 0},
	{"kvserver.write_ns_p99", "ns", "lower", 0},
	{"kvserver.write_share", "ratio", "lower", 0},
	{"kvserver.busy_total", "count", "lower", 0},
	{"kvserver.timeouts_total", "count", "lower", 0},
	{"kvserver.shed_total", "count", "lower", 0},
	{"kvserver.lost_workers_total", "count", "lower", 0},
	{"kvserver.spans_dropped_total", "count", "lower", 0},
	{"kvserver.kcas_publish_per_op", "count", "lower", 0},
	{"kvserver.kcas_helps_per_kop", "count", "lower", 0},
	{"kvserver.kcas_aborts_per_kop", "count", "lower", 0},
	{"kvserver.map_grows_total", "count", "lower", 0},
	// kvwire probes
	{"kvwire.parse_ns", "ns", "lower", 0},
	{"kvwire.parse_allocs", "count", "lower", 0},
	{"kvwire.append_ns", "ns", "lower", 0},
	{"kvwire.parse_response_ns", "ns", "lower", 0},
	// core: wrapped calls, then probes
	{"core.move_ns_mean", "ns", "lower", 0},
	{"core.move_ns_p99", "ns", "lower", 0},
	{"core.move_ok_ratio", "ratio", "higher", 0},
	{"core.transfer_ns_mean", "ns", "lower", 0},
	{"core.transfer_ok_ratio", "ratio", "higher", 0},
	{"core.move_solo_ns", "ns", "lower", 0},
	{"core.move_solo_allocs", "count", "lower", 0},
	{"core.movekeyed_solo_ns", "ns", "lower", 0},
	{"core.drain_ns_per_elem", "ns", "lower", 0},
	{"core.move_vs_blocking_ratio", "ratio", "lower", 0},
	// kcas: probes, then registry counters of the traced lib_* run
	{"kcas.k2_ns", "ns", "lower", 0},
	{"kcas.k4_ns", "ns", "lower", 0},
	{"kcas.publish_per_op", "count", "lower", 0},
	{"kcas.helps_per_kop", "count", "lower", 0},
	{"kcas.abort_ratio", "ratio", "lower", 0},
	{"kcas.descs_carved_total", "count", "lower", 0},
	{"kcas.cas_retries_per_kop", "count", "lower", 0},
	// batch probes
	{"batch.move_ns_b16", "ns", "lower", 0},
	{"batch.amortization_ratio", "ratio", "lower", 0},
	// containers: wrapped calls, then probes
	{"msqueue.enqueue_ns_mean", "ns", "lower", 0},
	{"msqueue.dequeue_ns_mean", "ns", "lower", 0},
	{"tstack.push_ns_mean", "ns", "lower", 0},
	{"tstack.pop_ns_mean", "ns", "lower", 0},
	{"hashmap.get_ns_mean", "ns", "lower", 0},
	{"hashmap.get_ns_p99", "ns", "lower", 0},
	{"hashmap.insert_ns_mean", "ns", "lower", 0},
	{"hashmap.remove_ns_mean", "ns", "lower", 0},
	{"hashmap.insert_p999_us", "us", "lower", 0},
	{"hashmap.grows_total", "count", "lower", 0},
	{"hashmap.migrated_total", "count", "lower", 0},
	{"hashmap.grow_ns_per_entry", "ns", "lower", 0},
	{"harrislist.insert_remove_ns", "ns", "lower", 0},
	{"msqueue.moveready_overhead_ratio", "ratio", "lower", 0},
	{"tstack.moveready_overhead_ratio", "ratio", "lower", 0},
	// substrate and baselines (probes)
	{"hazard.protect_clear_ns", "ns", "lower", 0},
	{"mm.alloc_retire_ns", "ns", "lower", 0},
	{"blocking.move_solo_ns", "ns", "lower", 0},
	{"plainqueue.pair_ns", "ns", "lower", 0},
	{"plainstack.pair_ns", "ns", "lower", 0},
	// runtime / harness
	{"go.alloc_bytes_per_op", "B", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "higher", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.span_coverage_ratio", "ratio", "higher", 0},
	{"bench.fail_ratio", "ratio", "lower", 0},
	{"bench.valid", "count", "higher", 0},
}

var unitOf = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a catalogue name to its value.
type metrics map[string]metric

// set stores v under name with the catalogue's unit. A name that is
// not in the catalogue, or a value JSON cannot carry, is a bug in the
// benchmark itself.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric not in catalogue: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is not finite: %v", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// fill adds every missing metric of defs at zero: the layer was not
// exercised by this run.
func (m metrics) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
}

// median returns the middle value of vs (mean of the two middle values
// for an even count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quantile returns the q-quantile of sorted whole-nanosecond samples,
// treating every distinct value v as the interval [v-0.5, v+0.5) and
// interpolating by rank inside it (the grouped-data quantile). Clock
// readings are whole nanoseconds and operations take a few hundred of
// them, so without this a percentile could only move in 1 ns steps.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	i := int(rank)
	if i >= n {
		i = n - 1
	}
	v := sorted[i]
	lo := sort.Search(n, func(j int) bool { return sorted[j] >= v })
	hi := sort.Search(n, func(j int) bool { return sorted[j] > v })
	return float64(v) - 0.5 + (rank-float64(lo))/float64(hi-lo)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
