package sim

import (
	"fmt"
	"strings"

	"masksim/internal/cache"
	"masksim/internal/dram"
	"masksim/internal/memreq"
	"masksim/internal/ptw"
	"masksim/internal/telemetry"
	"masksim/internal/tlb"
)

// AppResult holds one application's per-run measurements.
type AppResult struct {
	Name  string
	Cores int

	Instructions uint64
	MemInsts     uint64
	IPC          float64

	// L1TLB aggregates the app's per-core L1 TLB stats.
	L1TLB tlb.L1Stats
	// L2TLB is the app's slice of the shared L2 TLB counters (zero when the
	// design has no shared TLB).
	L2TLB tlb.AppTLBStats

	// DRAMBusCycles is the app's share of data-bus occupancy.
	DRAMBusCycles uint64
}

// Results is the complete measurement set from one simulation run.
type Results struct {
	Config string
	Cycles int64
	Apps   []AppResult

	// CyclesTicked / CyclesSkipped split the simulated cycles into those the
	// engine single-stepped and those covered by fast-forward jumps
	// (CyclesTicked + CyclesSkipped == Cycles). Purely a performance
	// diagnostic: all other fields are bit-identical whichever way a cycle
	// was covered, so these are excluded from the drift fingerprint and from
	// String.
	CyclesTicked  int64
	CyclesSkipped int64

	// TotalIPC is the sum of per-app IPCs ("IPC throughput", §7.1).
	TotalIPC float64
	// IdleFraction is the fraction of core-cycles with no schedulable warp —
	// the direct cost of translation stalls (Figure 4).
	IdleFraction float64

	// TransStallCycles and DataStallCycles decompose warp memory-stall time
	// into its translation and data phases (the Figure 4 anatomy): warps
	// wait TransStallCycles for address translation before their data
	// requests can even issue.
	TransStallCycles uint64
	DataStallCycles  uint64

	Walker ptw.Stats

	// DRAMClass indexes dram.ClassCounters by memreq.Class.
	DRAMClass [2]dram.ClassCounters
	// DRAMBandwidthUtil is the fraction of total bus-cycles used, per class
	// (Figure 8).
	DRAMBandwidthUtil [2]float64

	// L2CacheLevel holds the shared L2 data cache stats per page-walk level
	// (index 0 = data demand requests) — the §5.3/§7.2 analysis.
	L2CacheLevel [memreq.MaxWalkLevel + 1]cache.Stats

	// L2TLBTotal sums the shared TLB counters across apps.
	L2TLBTotal tlb.AppTLBStats
	// BypassCacheHitRate is the MASK TLB bypass cache hit rate (§7.2).
	BypassCacheHitRate float64

	// Faults reports demand-paging activity (zero unless Config.DemandPaging).
	Faults ptw.FaultStats

	// Prefetch reports TLB-prefetcher activity (zero unless
	// Config.TLBPrefetch).
	Prefetch tlb.PrefetchStats

	// Trace is the sampled time series (empty unless Config.TraceInterval).
	Trace []TraceSample

	// Telemetry is the epoch-sampled probe time series and instant-event
	// stream (nil unless Config.TelemetryEpoch > 0). To write it out as CSV,
	// JSONL or a Chrome trace, attach a telemetry.StreamSink as
	// Config.TelemetrySink.
	Telemetry *telemetry.Data

	// Aborted is set when the run was cut short (watchdog abort, context
	// cancellation or deadline); the rest of the Results then covers only the
	// cycles actually simulated (Cycles reports how far the run got).
	Aborted bool
	// AbortReason is the supervising error's message when Aborted.
	AbortReason string
}

// collect gathers statistics from every component after a run.
func (s *Simulator) collect(cycles int64) *Results {
	r := &Results{
		Config:        s.cfg.Name,
		Cycles:        cycles,
		CyclesTicked:  s.eng.Ticked(),
		CyclesSkipped: s.eng.Skipped(),
	}
	if r.Config == "" {
		r.Config = s.cfg.Design.String()
	}

	var idle, coreCycles uint64
	l1Idx := 0
	for appIdx, app := range s.apps {
		name := app.Profile.Name
		if app.Trace != nil {
			name = app.Trace.Name
		}
		ar := AppResult{Name: name, Cores: s.coresPerApp[appIdx]}
		for _, core := range s.cores {
			if core.AppID() != appIdx {
				continue
			}
			st := core.Stats
			ar.Instructions += st.Instructions
			ar.MemInsts += st.MemInsts
			idle += st.IdleCycles
			coreCycles += st.Cycles
			r.TransStallCycles += st.TransStallCycles
			r.DataStallCycles += st.DataStallCycles
		}
		if !s.cfg.Ideal {
			// L1 TLBs are created in core order, so the app's TLBs are the
			// next coresPerApp[appIdx] entries.
			for i := 0; i < s.coresPerApp[appIdx]; i++ {
				st := s.l1tlbs[l1Idx].Stats
				ar.L1TLB.Accesses += st.Accesses
				ar.L1TLB.Hits += st.Hits
				ar.L1TLB.Misses += st.Misses
				ar.L1TLB.StalledWarpSum += st.StalledWarpSum
				ar.L1TLB.StalledWarpCount += st.StalledWarpCount
				l1Idx++
			}
		}
		if s.l2tlb != nil {
			ar.L2TLB = s.l2tlb.AppStats(appIdx)
		}
		ar.DRAMBusCycles = s.mem.AppBusCycles(appIdx)
		if cycles > 0 {
			ar.IPC = float64(ar.Instructions) / float64(cycles)
		}
		r.TotalIPC += ar.IPC
		r.Apps = append(r.Apps, ar)
	}
	if coreCycles > 0 {
		r.IdleFraction = float64(idle) / float64(coreCycles)
	}

	if !s.cfg.Ideal {
		r.Walker = s.walker.Stats
	}
	r.DRAMClass[memreq.Data] = s.mem.Class[memreq.Data]
	r.DRAMClass[memreq.Translation] = s.mem.Class[memreq.Translation]
	r.DRAMBandwidthUtil[memreq.Data] = s.mem.BandwidthUtil(memreq.Data, cycles)
	r.DRAMBandwidthUtil[memreq.Translation] = s.mem.BandwidthUtil(memreq.Translation, cycles)

	for lvl := 0; lvl <= memreq.MaxWalkLevel; lvl++ {
		r.L2CacheLevel[lvl] = s.l2c.LevelStats(lvl)
	}
	if s.l2tlb != nil {
		r.L2TLBTotal = s.l2tlb.TotalStats()
		r.BypassCacheHitRate = s.l2tlb.BypassHitRate()
		r.Prefetch = s.l2tlb.PrefetchStats()
	}
	if s.faults != nil {
		r.Faults = s.faults.Stats
	}
	r.Trace = s.trace.samples
	if s.tel != nil {
		// A final partial-epoch sample makes counter columns telescope to the
		// exact end-of-run totals for any run length.
		s.tel.Finish(cycles)
		r.Telemetry = s.tel.Data()
	}
	return r
}

// IPCs returns the per-app shared IPC vector, in app order, for the metrics
// package.
func (r *Results) IPCs() []float64 {
	out := make([]float64, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.IPC
	}
	return out
}

// AppByName returns the result for the named app (first match) and whether
// it was found.
func (r *Results) AppByName(name string) (AppResult, bool) {
	for _, a := range r.Apps {
		if a.Name == name {
			return a, true
		}
	}
	return AppResult{}, false
}

// String renders a compact human-readable summary.
func (r *Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "config=%s cycles=%d totalIPC=%.3f idle=%.1f%%\n",
		r.Config, r.Cycles, r.TotalIPC, 100*r.IdleFraction)
	if r.Aborted {
		reason := r.AbortReason
		if i := strings.IndexByte(reason, '\n'); i >= 0 {
			reason = reason[:i]
		}
		fmt.Fprintf(&b, "  ABORTED (partial results): %s\n", reason)
	}
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "  %-6s cores=%-2d IPC=%.3f L1TLBmiss=%.1f%% L2TLBmiss=%.1f%% stalledWarps/miss=%.1f\n",
			a.Name, a.Cores, a.IPC,
			100*a.L1TLB.MissRate(), 100*a.L2TLB.MissRate(), a.L1TLB.AvgStalledWarps())
	}
	fmt.Fprintf(&b, "  walker: avgConcurrent=%.1f avgLatency=%.0fcy  DRAM: transBW=%.2f%% dataBW=%.2f%% transLat=%.0f dataLat=%.0f\n",
		r.Walker.AvgConcurrent(), r.Walker.AvgLatency(),
		100*r.DRAMBandwidthUtil[memreq.Translation], 100*r.DRAMBandwidthUtil[memreq.Data],
		r.DRAMClass[memreq.Translation].AvgLatency(), r.DRAMClass[memreq.Data].AvgLatency())
	fmt.Fprintf(&b, "  L2$ hit rates: data=%.1f%%", 100*r.L2CacheLevel[0].HitRate())
	for lvl := 1; lvl <= memreq.MaxWalkLevel; lvl++ {
		s := r.L2CacheLevel[lvl]
		fmt.Fprintf(&b, " lvl%d=%.1f%%(byp %d)", lvl, 100*s.HitRate(), s.Bypasses)
	}
	if r.BypassCacheHitRate > 0 {
		fmt.Fprintf(&b, "  tlbBypass$=%.1f%%", 100*r.BypassCacheHitRate)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}
