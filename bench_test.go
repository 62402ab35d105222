// Benchmarks regenerating each of the paper's tables and figures on a
// reduced scale (fewer cycles and the representative pair subset) so that
// `go test -bench=.` completes in reasonable time on one machine. Use
// `cmd/maskexp -full` for the full-scale regeneration.
package masksim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"masksim/internal/experiments"
	"masksim/sim"
)

// benchCycles keeps each experiment benchmark short; the shapes (who wins,
// roughly by what factor) are stable at this scale, per EXPERIMENTS.md.
const benchCycles = 6_000

func runExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunReport(id, experiments.Options{Cycles: benchCycles})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

func BenchmarkFig1TimeMultiplexing(b *testing.B) { runExperiment(b, "fig1") }
func BenchmarkFig3Baselines(b *testing.B)        { runExperiment(b, "fig3") }
func BenchmarkFig5ConcurrentWalks(b *testing.B)  { runExperiment(b, "fig5") }
func BenchmarkFig6StalledWarps(b *testing.B)     { runExperiment(b, "fig6") }
func BenchmarkFig7TLBInterference(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig8DRAMBandwidth(b *testing.B)    { runExperiment(b, "fig8") }
func BenchmarkFig9DRAMLatency(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkFig11Throughput(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12ZeroHMR(b *testing.B)         { runExperiment(b, "fig12") }
func BenchmarkFig13OneHMR(b *testing.B)          { runExperiment(b, "fig13") }
func BenchmarkFig14TwoHMR(b *testing.B)          { runExperiment(b, "fig14") }
func BenchmarkFig15Unfairness(b *testing.B)      { runExperiment(b, "fig15") }
func BenchmarkTab3Scalability(b *testing.B)      { runExperiment(b, "tab3") }
func BenchmarkTab4Generality(b *testing.B)       { runExperiment(b, "tab4") }
func BenchmarkCompTLBTokens(b *testing.B)        { runExperiment(b, "comp-tlb") }
func BenchmarkCompL2Bypass(b *testing.B)         { runExperiment(b, "comp-cache") }
func BenchmarkCompDRAMSched(b *testing.B)        { runExperiment(b, "comp-dram") }
func BenchmarkSensTLBSize(b *testing.B)          { runExperiment(b, "sens-tlbsize") }
func BenchmarkSensPageSize(b *testing.B)         { runExperiment(b, "sens-pagesize") }
func BenchmarkSensMemPolicy(b *testing.B)        { runExperiment(b, "sens-memsched") }
func BenchmarkStorageAccounting(b *testing.B)    { runExperiment(b, "storage") }
func BenchmarkCalibrationMatrix(b *testing.B)    { runExperiment(b, "calib") }
func BenchmarkAnatomy(b *testing.B)              { runExperiment(b, "anatomy") }
func BenchmarkAblation(b *testing.B)             { runExperiment(b, "ablate") }
func BenchmarkExtPaging(b *testing.B)            { runExperiment(b, "ext-paging") }
func BenchmarkExtPrefetch(b *testing.B)          { runExperiment(b, "ext-prefetch") }
func BenchmarkSensTokens(b *testing.B)           { runExperiment(b, "sens-tokens") }
func BenchmarkSensWarpSched(b *testing.B)        { runExperiment(b, "sens-warpsched") }

// BenchmarkSimulatorKernel measures raw simulation speed (cycles/op) of the
// contended reference pair on the full MASK configuration — the simulator's
// hot loop.
func BenchmarkSimulatorKernel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := MASKConfig()
		if _, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, benchCycles); err != nil {
			b.Fatal(err)
		}
	}
}

// allocBudget is the checked-in allocation ceiling for one
// BenchmarkSimulatorKernel iteration (simulator construction plus a
// benchCycles run of the contended MASK pair). Request/walk pooling brought
// the iteration from ~554k allocations down to ~66k, carving every pooled
// object, stream and page-table node from slab chunks brought that to ~10k,
// and replacing the completion closure each tracker bound on first use with a
// return route the request carries as data halved it again — what is left is
// mostly the construction of 30 cores and their caches — so the budget guards
// both the steady state and the cold start: reintroducing a per-request,
// per-walk, per-TLB-fill, per-tracker or per-warp allocation blows past it.
// The iteration measured 5 564 objects with a request pool and a translation
// pool per core (fast-forward on; 5 567 off) and 4 743 (4 745 off) with one
// of each per simulator; with requests of 56 bytes, which fill fewer chunks,
// it measured at most 4 650, fast-forward on or off, with or without -race.
// With every MSHR set on one miss table (no per-miss waiter spills, no maps)
// it measured at most 2 129 (2 109 without -race); with translations as
// values and no translation pool, at most 2 111 (2 089 without -race); with
// walks and faults as values and no walk free list, at most 2 096 (2 075
// without -race). The budget is that + 2 %. Raise it only with a profile in
// hand showing what the new allocations buy.
const allocBudget = 2_137

// TestAllocBudget is the allocation-regression gate CI runs on every change.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	allocs := testing.AllocsPerRun(1, func() {
		cfg := MASKConfig()
		if _, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, benchCycles); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > allocBudget {
		t.Fatalf("simulator kernel allocated %.0f objects per run, budget is %d; "+
			"profile with -memprofile before raising the budget", allocs, allocBudget)
	}
}

// TestColdCellBudget gates the cost of the campaign's unit of work — build a
// simulator, run it for 3 000 cycles, throw it away (`maskexp all` executes
// hundreds of such cells, maskd one per cold job) — in objects and in bytes:
// a lower object count may not be bought with more memory for the collector
// to trace. The cell measured 3 952 objects and 5 795 696 B with a request
// pool and a translation pool per core, and 3 211 objects and 4 647 272 B
// with one of each per simulator (each per-core pool carved its own first
// chunks). With requests of 56 bytes instead of 96 it measured at most
// 3 176 objects and 4 146 512 B (with or without -race); with every MSHR set
// on one miss table, 2 935 → 1 936 objects and 4 154 104 → 4 064 376 B; with
// translations as values and no translation pool, at most 1 926 objects and
// 4 070 448 B (1 902 and 4 063 552 B without -race); with walks and faults
// as values, at most 1 903 objects and 4 071 600 B (1 887 and 4 063 568 B
// without -race). The object budget is that + 2 %; the bytes did not fall,
// and their budget stays the earlier measurement + 2 %.
func TestColdCellBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	const (
		objectBudget = 1_941
		byteBudget   = 4_145_663
	)
	cell := func() {
		if _, err := Run(context.Background(), SharedTLBConfig(), []string{"3DS", "HISTO"}, 3000); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1, cell); allocs > objectBudget {
		t.Fatalf("cold cell allocated %.0f objects, budget is %d", allocs, objectBudget)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cell()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > byteBudget {
		t.Fatalf("cold cell allocated %d bytes, budget is %d", bytes, byteBudget)
	}
}

// TestRecycledCellBudget gates what recycling buys the campaign: the cold
// cell of TestColdCellBudget again, but built by a sim.Recycler over the
// simulator the previous cell returned — 3 211 objects new. The second such
// cell measures 296–300 objects and 3.36 MB, and a third that follows a cell
// of another design (MASK: other DRAM queue capacities, a bypass cache,
// token state) 321–326 objects and 3 386 032 B at most; with a request pool
// and a translation pool per core they measured 361 and 394 objects, 3.85
// and 3.88 MB. Both budgets are the largest measurement + 2 %. Since one
// scheduler per DRAM channel replaced the three scheduler types, the two
// cells measured 285 and 295 objects; with requests of 56 bytes they measure
// at most 238 and 249 objects, 2 874 248 and 2 879 328 B; with every MSHR
// set on one miss table, 235 and 241 objects, 2 857 704 and 2 862 120 B;
// with translations as values, 235 and 241 objects, 2 856 424 and
// 2 860 840 B; with walks and faults as values, 233 and 239 objects,
// 2 840 040 and 2 844 456 B, which the budgets are + 2 %. Bytes barely move between cold
// and recycled cells, by design — a recycled simulator keeps its small
// buffers and lets the large ones go, because keeping them cost a third more
// resident memory (docs/MODEL.md §11) — so the byte budget only says they may
// not rise.
func TestRecycledCellBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	const (
		objectBudget = 243
		byteBudget   = 2_901_345
	)
	var r sim.Recycler
	cell := func(cfg Config, names ...string) {
		s, err := r.Prepare(cfg, names)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), 3000); err != nil {
			t.Fatal(err)
		}
		r.Put(s)
	}
	// measure runs the cell of prev and then the measured cell, three times
	// over on one P (as testing.AllocsPerRun does), and keeps the smallest
	// counts. The counters are the process's:
	// the runtime's own allocations — a new OS thread, a timer — land in them
	// at random and only ever add, while an allocation of the simulator's
	// shows in every repetition.
	measure := func(what string, prev Config, prevNames ...string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			cell(prev, prevNames...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cell(SharedTLBConfig(), "3DS", "HISTO")
			runtime.ReadMemStats(&after)
			objects = min(objects, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d objects, %d bytes", what, objects, bytes)
		if objects > objectBudget || bytes > byteBudget {
			t.Errorf("%s allocated %d objects and %d bytes, budget is %d and %d", what, objects, bytes, objectBudget, byteBudget)
		}
	}
	measure("second cell", SharedTLBConfig(), "3DS", "HISTO")
	measure("third cell, after a MASK cell", MASKConfig(), "3DS", "CONS")
}

// TestRetiredSimulatorFootprint gates what a recycler holds between cells.
// A simulator that goes back is retired at once — it lets go of its line
// arrays, streams, page tables and requests and keeps only small buffers —
// because whatever it still holds is live for the whole of the next cell, and
// the collector grants that much headroom again on top: keeping a finished
// run's 6–9 MB put the campaign a third over its resident-memory bound
// (docs/MODEL.md §11). After the heaviest cells of the service's mix a retired
// simulator measured 1.3 MB (1.8 MB while a retired DRAM kept its schedulers'
// queues, and through them the request chunks of the last cell's queued
// requests), and with requests of 56 bytes measures at most 1 264 296 B; the
// budget is that + 2 %. One that pins a request chunk or a page table through
// some forgotten pointer fails here.
func TestRetiredSimulatorFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("memory gate skipped in -short mode")
	}
	const budget = 1_289_582
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	r := new(sim.Recycler)
	for _, cell := range []struct {
		cfg   Config
		names []string
	}{
		{MASKConfig(), []string{"3DS", "CONS"}},
		{PWCacheConfig(), []string{"RED", "RAY"}},
		{IdealConfig(), []string{"RED", "BP"}},
	} {
		s, err := r.Prepare(cell.cfg, cell.names)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), 6000); err != nil {
			t.Fatal(err)
		}
		r.Put(s)
	}
	held := live()
	if r.Len() != 1 {
		t.Fatalf("recycler holds %d simulators, want 1", r.Len())
	}
	r = nil
	if empty := live(); held-empty > budget {
		t.Fatalf("a retired simulator holds %d bytes, budget is %d", held-empty, budget)
	} else {
		t.Logf("a retired simulator holds %d bytes", held-empty)
	}
}

// benchTelemetry runs the kernel benchmark with the given telemetry epoch;
// comparing the two benchmarks below bounds the subsystem's overhead. The
// acceptance target is <= ~2% when disabled (the pull-based design adds no
// per-event work) and modest when enabled at a realistic epoch.
func benchTelemetry(b *testing.B, epoch int64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := MASKConfig()
		cfg.TelemetryEpoch = epoch
		res, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, benchCycles)
		if err != nil {
			b.Fatal(err)
		}
		if epoch > 0 && res.Telemetry == nil {
			b.Fatal("telemetry enabled but no data collected")
		}
	}
}

func BenchmarkTelemetryDisabled(b *testing.B) { benchTelemetry(b, 0) }
func BenchmarkTelemetryEnabled(b *testing.B)  { benchTelemetry(b, 1000) }

// benchFastForward measures event-horizon fast-forward on the TLB-miss-heavy
// MUM+GUP pair with demand paging: major faults drain the whole machine for
// tens of thousands of cycles at a time, so almost the entire run is globally
// quiescent and skippable. Results are bit-identical either way
// (TestFastForwardEquivalence); only the cycles-ticked count and the
// wall-clock change.
func benchFastForward(b *testing.B, ff bool) {
	b.ReportAllocs()
	var ticked, skipped int64
	for i := 0; i < b.N; i++ {
		cfg := SharedTLBConfig()
		cfg.FastForward = ff
		cfg.DemandPaging = true
		res, err := Run(context.Background(), cfg, []string{"MUM", "GUP"}, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		ticked, skipped = res.CyclesTicked, res.CyclesSkipped
	}
	b.ReportMetric(float64(ticked), "cycles-ticked")
	b.ReportMetric(float64(ticked+skipped), "cycles-simulated")
}

func BenchmarkFastForwardOn(b *testing.B)  { benchFastForward(b, true) }
func BenchmarkFastForwardOff(b *testing.B) { benchFastForward(b, false) }

// benchFastForwardSaturated bounds the horizon-scan overhead in the regime
// fast-forward cannot help: the contended MASK pair ticks nearly every cycle
// (64 concurrent walks keep the L2 cache and DRAM busy), so the on/off delta
// here is the pure cost of probing every component's NextEvent per cycle.
func benchFastForwardSaturated(b *testing.B, ff bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := MASKConfig()
		cfg.FastForward = ff
		if _, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, benchCycles); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastForwardSaturatedOn(b *testing.B)  { benchFastForwardSaturated(b, true) }
func BenchmarkFastForwardSaturatedOff(b *testing.B) { benchFastForwardSaturated(b, false) }

// TestAllocBudgetFastForwardOff re-runs the allocation gate with fast-forward
// disabled: the -no-fastforward escape hatch must not regress allocation
// behaviour either (TestAllocBudget covers the default fast-forward path).
func TestAllocBudgetFastForwardOff(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	allocs := testing.AllocsPerRun(1, func() {
		cfg := MASKConfig()
		cfg.FastForward = false
		if _, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, benchCycles); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > allocBudget {
		t.Fatalf("simulator kernel (fast-forward off) allocated %.0f objects per run, budget is %d",
			allocs, allocBudget)
	}
}
