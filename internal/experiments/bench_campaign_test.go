package experiments

import "testing"

// BenchmarkCampaignAll regenerates every registered experiment as one shared
// campaign at reduced scale, the shape of `maskexp all`. Beyond time/op it
// reports the scheduling efficiency this layer exists for: simulations
// actually executed per op (sims-exec) versus simulations requested
// (sims-req) — the gap is the work the campaign cache deduplicated.
// The ledger's campaign-sweep workload records the trajectory
// (experiments.dedup_ratio, simcache.warm_pass_ms).
func BenchmarkCampaignAll(b *testing.B) {
	const benchCycles = 600
	b.ReportAllocs()
	var executed, requested uint64
	for i := 0; i < b.N; i++ {
		camp := RunCampaign(IDs(), Options{Cycles: benchCycles})
		for _, rep := range camp.Reports {
			if rep.Err != nil {
				b.Fatalf("%s: %v", rep.ID, rep.Err)
			}
		}
		executed += camp.Stats.Attempted
		requested += camp.Stats.CacheRequests
	}
	b.ReportMetric(float64(executed)/float64(b.N), "sims-exec/op")
	b.ReportMetric(float64(requested)/float64(b.N), "sims-req/op")
}

// BenchmarkCampaignAllUncached is the before picture: the same campaign with
// per-experiment harnesses and no memoization, i.e. the pre-cache `maskexp
// all` execution model where every experiment re-derives its own grid.
func BenchmarkCampaignAllUncached(b *testing.B) {
	const benchCycles = 600
	b.ReportAllocs()
	var executed uint64
	for i := 0; i < b.N; i++ {
		for _, id := range IDs() {
			h := NewHarness(benchCycles)
			h.Cache = nil
			if _, err := registry[id].run(h, false); err != nil {
				b.Fatalf("%s: %v", id, err)
			}
			executed += h.Stats().Attempted
		}
	}
	b.ReportMetric(float64(executed)/float64(b.N), "sims-exec/op")
}
