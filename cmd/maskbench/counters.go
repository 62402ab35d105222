package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"masksim/internal/memreq"
	"masksim/sim"
)

// renderResults writes every integer counter (and the derived floats) of one
// run in a canonical text form, the same idea as sim's drift fingerprint: one
// extra cache probe or one reordered DRAM pick changes it. Left out, as
// there: the host-side tick/skip split, and the Config label, which on a
// shared result cache is whichever requester's happened to execute the run.
func renderResults(b *strings.Builder, r *sim.Results) {
	fmt.Fprintf(b, "cycles=%d totalIPC=%.12g idle=%.12g trans=%d data=%d\n",
		r.Cycles, r.TotalIPC, r.IdleFraction, r.TransStallCycles, r.DataStallCycles)
	for _, a := range r.Apps {
		fmt.Fprintf(b, "app=%s cores=%d inst=%d mem=%d l1tlb=%d/%d/%d/%d/%d l2tlb=%d/%d/%d bus=%d\n",
			a.Name, a.Cores, a.Instructions, a.MemInsts,
			a.L1TLB.Accesses, a.L1TLB.Hits, a.L1TLB.Misses, a.L1TLB.StalledWarpSum, a.L1TLB.StalledWarpCount,
			a.L2TLB.Accesses, a.L2TLB.Hits, a.L2TLB.Misses, a.DRAMBusCycles)
	}
	w := r.Walker
	fmt.Fprintf(b, "walker=%d/%d/%d/%d/%d/%d/%d\n",
		w.Started, w.Completed, w.LatSum, w.Samples, w.ActiveSum, w.ActiveMax, w.ActivePeak)
	for cls := memreq.Data; cls <= memreq.Translation; cls++ {
		c := r.DRAMClass[cls]
		fmt.Fprintf(b, "dram[%s]=%d/%d/%d/%d/%d/%d util=%.12g\n",
			cls, c.Requests, c.BusCycles, c.LatSum, c.RowHits, c.RowClosed, c.RowConflicts, r.DRAMBandwidthUtil[cls])
	}
	for lvl, s := range r.L2CacheLevel {
		fmt.Fprintf(b, "l2c[%d]=%d/%d/%d/%d\n", lvl, s.Accesses, s.Hits, s.Misses, s.Bypasses)
	}
	fmt.Fprintf(b, "l2tlbTotal=%d/%d/%d bypassHit=%.12g faults=%+v prefetch=%+v\n",
		r.L2TLBTotal.Accesses, r.L2TLBTotal.Hits, r.L2TLBTotal.Misses, r.BypassCacheHitRate, r.Faults, r.Prefetch)
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// resultsSHA fingerprints one run's simulated statistics.
func resultsSHA(r *sim.Results) string {
	var b strings.Builder
	renderResults(&b, r)
	return sha(b.String())
}

// checkResults returns what is wrong with one completed run: the invariants
// any healthy Results satisfies whatever the configuration.
func checkResults(r *sim.Results) []string {
	var bad []string
	if r.Aborted {
		bad = append(bad, "run aborted: "+r.AbortReason)
	}
	if r.CyclesTicked+r.CyclesSkipped != r.Cycles {
		bad = append(bad, fmt.Sprintf("ticked %d + skipped %d != cycles %d", r.CyclesTicked, r.CyclesSkipped, r.Cycles))
	}
	for _, a := range r.Apps {
		if a.L1TLB.Hits+a.L1TLB.Misses != a.L1TLB.Accesses {
			bad = append(bad, a.Name+": L1 TLB hits+misses != accesses")
		}
		// The shared TLB counts an access at first probe and the hit or miss
		// at resolution, so requests in flight at the last cycle are neither.
		if a.L2TLB.Hits+a.L2TLB.Misses > a.L2TLB.Accesses {
			bad = append(bad, a.Name+": L2 TLB hits+misses > accesses")
		}
	}
	for lvl, s := range r.L2CacheLevel {
		if s.Hits+s.Misses+s.Bypasses != s.Accesses {
			bad = append(bad, fmt.Sprintf("L2 cache level %d: hits+misses+bypasses != accesses", lvl))
		}
	}
	return bad
}

// counters sums the simulated statistics of the runs a workload executed, so
// that one kernel run, a campaign's hundreds of cells and a service's jobs
// all report the same per-layer names.
type counters struct {
	cycles, ticked, skipped         int64
	instructions                    uint64
	idleCycles                      float64 // idle fraction weighted by cycles
	transStall, dataStall           uint64
	l1Acc, l1Miss, l2Acc, l2Miss    uint64
	walks, walkLat                  uint64
	walkSamples, walkActive         uint64
	l2cData, l2cDataHit, l2cDataMis uint64
	l2cTrans, l2cTransHit           uint64
	l2cTransMis, l2cBypass          uint64
	dramReq, dramLat                [2]uint64
	rowHits, rowAll                 uint64
	busUtilCycles                   float64 // bandwidth utilisation weighted by cycles
}

func (c *counters) add(r *sim.Results) {
	c.cycles += r.Cycles
	c.ticked += r.CyclesTicked
	c.skipped += r.CyclesSkipped
	c.idleCycles += r.IdleFraction * float64(r.Cycles)
	c.transStall += r.TransStallCycles
	c.dataStall += r.DataStallCycles
	for _, a := range r.Apps {
		c.instructions += a.Instructions
		c.l1Acc += a.L1TLB.Accesses
		c.l1Miss += a.L1TLB.Misses
	}
	c.l2Acc += r.L2TLBTotal.Accesses
	c.l2Miss += r.L2TLBTotal.Misses
	c.walks += r.Walker.Completed
	c.walkLat += r.Walker.LatSum
	c.walkSamples += r.Walker.Samples
	c.walkActive += r.Walker.ActiveSum
	for lvl, s := range r.L2CacheLevel {
		c.l2cBypass += s.Bypasses
		if lvl == 0 {
			c.l2cData += s.Accesses
			c.l2cDataHit += s.Hits
			c.l2cDataMis += s.Misses
		} else {
			c.l2cTrans += s.Accesses
			c.l2cTransHit += s.Hits
			c.l2cTransMis += s.Misses
		}
	}
	for cls, d := range r.DRAMClass {
		c.dramReq[cls] += d.Requests
		c.dramLat[cls] += d.LatSum
		c.rowHits += d.RowHits
		c.rowAll += d.RowHits + d.RowClosed + d.RowConflicts
		c.busUtilCycles += r.DRAMBandwidthUtil[cls] * float64(r.Cycles)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics renders the counters as per-layer metrics; cpu is the host CPU time
// (seconds) the runs cost, for the host-per-event ratios.
func (c *counters) metrics(cpu float64) map[string]float64 {
	f := func(v uint64) float64 { return float64(v) }
	return map[string]float64{
		"engine.cycles_ticked":            float64(c.ticked),
		"engine.cycles_skipped":           float64(c.skipped),
		"engine.host_ns_per_ticked_cycle": ratio(cpu*1e9, float64(c.ticked)),
		"gpu.instructions":                f(c.instructions),
		"gpu.idle_fraction":               ratio(c.idleCycles, float64(c.cycles)),
		"gpu.trans_stall_cycles":          f(c.transStall),
		"gpu.data_stall_cycles":           f(c.dataStall),
		"gpu.host_ns_per_instruction":     ratio(cpu*1e9, f(c.instructions)),
		"tlb.l1_miss_rate":                ratio(f(c.l1Miss), f(c.l1Acc)),
		"tlb.l2_miss_rate":                ratio(f(c.l2Miss), f(c.l2Acc)),
		"tlb.l2_accesses":                 f(c.l2Acc),
		"ptw.walks_completed":             f(c.walks),
		"ptw.avg_walk_latency_cycles":     ratio(f(c.walkLat), f(c.walks)),
		"ptw.avg_concurrent_walks":        ratio(f(c.walkActive), f(c.walkSamples)),
		"cache.l2_data_accesses":          f(c.l2cData),
		"cache.l2_data_hit_rate":          ratio(f(c.l2cDataHit), f(c.l2cDataHit+c.l2cDataMis)),
		"cache.l2_trans_accesses":         f(c.l2cTrans),
		"cache.l2_trans_hit_rate":         ratio(f(c.l2cTransHit), f(c.l2cTransHit+c.l2cTransMis)),
		"cache.l2_bypasses":               f(c.l2cBypass),
		"dram.data_requests":              f(c.dramReq[memreq.Data]),
		"dram.trans_requests":             f(c.dramReq[memreq.Translation]),
		"dram.row_hit_rate":               ratio(f(c.rowHits), f(c.rowAll)),
		"dram.data_avg_latency_cycles":    ratio(f(c.dramLat[memreq.Data]), f(c.dramReq[memreq.Data])),
		"dram.trans_avg_latency_cycles":   ratio(f(c.dramLat[memreq.Translation]), f(c.dramReq[memreq.Translation])),
		"dram.bandwidth_util":             ratio(c.busUtilCycles, float64(c.cycles)),
	}
}
