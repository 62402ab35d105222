package main

import (
	"encoding/json"
	"math"
	"strings"
)

// The benchmark's vocabulary. BENCHMARK.json at the repository root is
// generated from these tables (maskbench -print-benchmark-json) and
// TestBenchmarkJSONInSync keeps the two from drifting apart.

// runSeconds is the --seconds the driver passes: every size below is
// "work per second of budget" on the 2-vCPU reference host, so one timed
// section lasts about this long there. Work is fixed by --seconds, never by a
// clock: a slower host takes longer, it does not do less. The issue sized its
// workloads for 30 s; the contract's cap on a whole run set (92 runs and two
// builds in 3 420 s) leaves room for 18 when the host has a slow hour, and
// --seconds 30 runs the issue's sizes.
const runSeconds = 18

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"saturated-pair", "MASK 3DS+CONS, six long runs on fresh simulators: data side saturated, CPU sits in the core-to-L1D retry storm and Core.Tick; almost no cycle is skippable"},
	{"translation-bound-pair", "SharedTLB MUM+GUP, six long runs on fresh simulators: translation side saturated, cores mostly idle, CPU spreads over TLB fill, DRAM and map iteration; bypasses the retry storm"},
	{"campaign-sweep", "one cold maskexp-all campaign: hundreds of short cold-start simulations of every design under harness scheduling, single-flight dedup and disk writes"},
	{"service-cold-warm", "two closed-loop maskd clients: cold jobs simulate behind slots and HTTP, warm jobs are cross-tenant cache hits where only maskd, simcache and JSON work"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the simulator, the campaign runner or the
// service feels, as the clock and getrusage read it. All are host time unless
// the name says cycles. Every workload reports every one; README.md says what
// an op is on each workload. The issue's op_p90_ms and warm_op_p50_ms exist on
// service-cold-warm only, and the contract wants every end-to-end metric from
// every workload, so they are per-layer metrics (maskd.op_p90_ms,
// maskd.warm_op_p50_ms) and carry no bound.
//
// The issue bounds host times at 10 % and peak_rss_mb at 5 %. The contract
// accepts a benchmark only if ten runs' interquartile spread stays inside each
// bound, and on this shared 2-vCPU host identical runs spread 7-13 % in a
// quiet hour and 15-28 % in a slow one, peak_rss_mb up to 9 % (README.md, "How
// steady"). So host times carry the widest bound the contract allows and
// peak_rss_mb twice its widest spread. allocs_per_kcycle repeats exactly for
// one seed but differs by 2 % from seed to seed, and the contract's ten runs
// use ten seeds: 5 % where the issue has 3. A benchmark whose own runs
// disagree by more than its bound judges nothing.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"sim_kcycles_per_s", "kcycles/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"allocs_per_kcycle", "count/kcycle", lower, 0.05},
}

// profileLayers are the packages a CPU-profile sample's leaf frame folds
// into; each becomes <layer>.cpu_share. They partition the profile: the
// shares (without cache.submit_cpu_share, a part of cache.cpu_share) sum to 1.
var profileLayers = []string{
	"gpu", "cache", "tlb", "ptw", "pagetable", "dram", "memreq", "workload",
	"engine", "sim", "telemetry", "experiments", "simcache", "snapshot",
	"maskd", "json_http", "runtime.map", "runtime.malloc_gc", "runtime", "other",
}

// perLayer lists the single-layer metrics of the traced pass. Source and the
// end-to-end metric each should move are tabulated in README.md.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	for _, l := range profileLayers {
		out = append(out, metricSpec{Name: shareName(l), Unit: "share", Better: lower})
		if l == "cache" {
			out = append(out, metricSpec{Name: "cache.submit_cpu_share", Unit: "share", Better: lower})
		}
	}
	return append(out, []metricSpec{
		// Exact counters read from the calls' return values.
		{Name: "engine.cycles_ticked", Unit: "cycles", Better: lower},
		{Name: "engine.cycles_skipped", Unit: "cycles", Better: higher},
		{Name: "engine.host_ns_per_ticked_cycle", Unit: "ns/cycle", Better: lower},
		{Name: "gpu.instructions", Unit: "count", Better: higher},
		{Name: "gpu.idle_fraction", Unit: "share", Better: lower},
		{Name: "gpu.trans_stall_cycles", Unit: "cycles", Better: lower},
		{Name: "gpu.data_stall_cycles", Unit: "cycles", Better: lower},
		{Name: "gpu.host_ns_per_instruction", Unit: "ns/inst", Better: lower},
		{Name: "tlb.l1_miss_rate", Unit: "share", Better: lower},
		{Name: "tlb.l2_miss_rate", Unit: "share", Better: lower},
		{Name: "tlb.l2_accesses", Unit: "count", Better: lower},
		{Name: "ptw.walks_completed", Unit: "count", Better: lower},
		{Name: "ptw.avg_walk_latency_cycles", Unit: "cycles", Better: lower},
		{Name: "ptw.avg_concurrent_walks", Unit: "count", Better: lower},
		{Name: "cache.l2_data_accesses", Unit: "count", Better: lower},
		{Name: "cache.l2_data_hit_rate", Unit: "share", Better: higher},
		{Name: "cache.l2_trans_accesses", Unit: "count", Better: lower},
		{Name: "cache.l2_trans_hit_rate", Unit: "share", Better: higher},
		{Name: "cache.l2_bypasses", Unit: "count", Better: lower},
		{Name: "dram.data_requests", Unit: "count", Better: lower},
		{Name: "dram.trans_requests", Unit: "count", Better: lower},
		{Name: "dram.row_hit_rate", Unit: "share", Better: higher},
		{Name: "dram.data_avg_latency_cycles", Unit: "cycles", Better: lower},
		{Name: "dram.trans_avg_latency_cycles", Unit: "cycles", Better: lower},
		{Name: "dram.bandwidth_util", Unit: "share", Better: higher},
		{Name: "experiments.cells_requested", Unit: "count", Better: lower},
		{Name: "experiments.cells_executed", Unit: "count", Better: lower},
		{Name: "experiments.dedup_ratio", Unit: "ratio", Better: higher},
		{Name: "experiments.worker_utilisation", Unit: "share", Better: higher},
		{Name: "simcache.mem_hits", Unit: "count", Better: higher},
		{Name: "simcache.inflight_waits", Unit: "count", Better: lower},
		{Name: "simcache.disk_writes", Unit: "count", Better: lower},
		{Name: "maskd.cells_executed", Unit: "count", Better: lower},
		// Spans the benchmark records around maskd.Client calls.
		{Name: "maskd.op_p90_ms", Unit: "ms", Better: lower},
		{Name: "maskd.warm_op_p50_ms", Unit: "ms", Better: lower},
		{Name: "maskd.submit_p50_ms", Unit: "ms", Better: lower},
		{Name: "maskd.wait_p50_ms", Unit: "ms", Better: lower},
		{Name: "maskd.polls_per_job", Unit: "polls/job", Better: lower},
		{Name: "maskd.response_kb_per_job", Unit: "kB/job", Better: lower},
		{Name: "maskd.sse_frames", Unit: "count", Better: lower},
		// Layer drivers: repeated calls into one public function, median.
		{Name: "sim.build_ms", Unit: "ms", Better: lower},
		{Name: "sim.checkpoint_encode_ms", Unit: "ms", Better: lower},
		{Name: "sim.checkpoint_mb", Unit: "MB", Better: lower},
		{Name: "sim.checkpoint_restore_ms", Unit: "ms", Better: lower},
		{Name: "workload.text_parse_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "workload.mtb_decode_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "workload.mtb_encode_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "simcache.key_us", Unit: "us", Better: lower},
		{Name: "simcache.encode_entry_us", Unit: "us", Better: lower},
		{Name: "simcache.decode_entry_us", Unit: "us", Better: lower},
		{Name: "simcache.disk_hit_us", Unit: "us", Better: lower},
		{Name: "simcache.warm_pass_ms", Unit: "ms", Better: lower},
		{Name: "maskd.store_get_us", Unit: "us", Better: lower},
		{Name: "maskd.store_put_us", Unit: "us", Better: lower},
		{Name: "engine.shards2_speedup", Unit: "ratio", Better: higher},
		{Name: "engine.fastforward_off_ratio", Unit: "ratio", Better: higher},
		{Name: "engine.paging_skip_fraction", Unit: "share", Better: higher},
		{Name: "engine.paging_kcycles_per_s", Unit: "kcycles/s", Better: higher},
		{Name: "telemetry.overhead_ratio", Unit: "ratio", Better: lower},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	}...)
}

// exactCounters are the per-layer metrics that depend only on the inputs:
// every run of one commit, seed and --seconds must report the same values,
// traced or not. (simcache.mem_hits, simcache.inflight_waits and
// maskd.sse_frames depend on scheduling and are informational.)
var exactCounters = []string{
	"engine.cycles_ticked", "engine.cycles_skipped",
	"gpu.instructions", "gpu.idle_fraction", "gpu.trans_stall_cycles", "gpu.data_stall_cycles",
	"tlb.l1_miss_rate", "tlb.l2_miss_rate", "tlb.l2_accesses",
	"ptw.walks_completed", "ptw.avg_walk_latency_cycles", "ptw.avg_concurrent_walks",
	"cache.l2_data_accesses", "cache.l2_data_hit_rate", "cache.l2_trans_accesses", "cache.l2_trans_hit_rate", "cache.l2_bypasses",
	"dram.data_requests", "dram.trans_requests", "dram.row_hit_rate",
	"dram.data_avg_latency_cycles", "dram.trans_avg_latency_cycles", "dram.bandwidth_util",
	"experiments.cells_requested", "experiments.cells_executed", "experiments.dedup_ratio",
	"simcache.disk_writes", "maskd.cells_executed",
}

// shareName is the metric a profile layer reports under: gpu.cpu_share, but
// runtime.map_cpu_share for the two named parts of the runtime.
func shareName(layer string) string {
	if strings.HasPrefix(layer, "runtime.") {
		return layer + "_cpu_share"
	}
	return layer + ".cpu_share"
}

// benchmarkJSON renders the contract file.
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "cmd/maskbench/run.sh"},
		Paths:      []string{"cmd/maskbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // Bound is zero there and omitted
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(b, '\n')
}

// sizing turns the --seconds budget into fixed work.
type sizing struct{ seconds float64 }

// cycles returns perSecond simulated cycles for each second of budget.
func (z sizing) cycles(perSecond float64) int64 {
	return int64(math.Max(1, math.Round(perSecond*z.seconds)))
}
