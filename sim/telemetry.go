package sim

import (
	"fmt"
	"math"

	"masksim/internal/dram"
	"masksim/internal/metrics"
	"masksim/internal/telemetry"
)

// buildTelemetry constructs the epoch sampler when Config.TelemetryEpoch > 0
// and registers every probe against the wired components. Probes are
// pull-based closures over counters the components maintain anyway, so the
// only run-time additions are the collector's once-per-epoch snapshot, the
// walker's latency histogram, and the nil-checked event sinks — a disabled
// run (TelemetryEpoch == 0) skips this entirely.
//
// Probe catalogue and naming scheme: docs/OBSERVABILITY.md. The first
// slash-separated segment of each name is the component; the Chrome-trace
// exporter renders one track group per component.
func (s *Simulator) buildTelemetry() {
	if s.cfg.TelemetryEpoch <= 0 {
		return
	}
	tel := telemetry.NewCollector(s.cfg.TelemetryEpoch)
	s.tel = tel
	reg := func(err error) {
		// Probe names are generated from static schemes; a collision or bad
		// name is a wiring bug, not a runtime condition.
		if err != nil {
			panic(err)
		}
	}

	// --- per-application probes ------------------------------------------
	l1Idx := 0
	for appIdx := range s.apps {
		app := appIdx
		reg(tel.Counter(fmt.Sprintf("app%d/instructions", app), func() float64 {
			var n uint64
			for _, c := range s.cores {
				if c.AppID() == app {
					n += c.Stats.Instructions
				}
			}
			return float64(n)
		}))
		if len(s.l1tlbs) > 0 {
			// L1 TLBs are created in core order, so the app's TLBs are the
			// next coresPerApp[appIdx] entries (same walk as Results.collect).
			appTLBs := s.l1tlbs[l1Idx : l1Idx+s.coresPerApp[appIdx]]
			l1Idx += s.coresPerApp[appIdx]
			reg(tel.Rate(fmt.Sprintf("app%d/l1tlb/hit_rate", app),
				func() float64 {
					var n uint64
					for _, t := range appTLBs {
						n += t.Stats.Hits
					}
					return float64(n)
				},
				func() float64 {
					var n uint64
					for _, t := range appTLBs {
						n += t.Stats.Accesses
					}
					return float64(n)
				}))
		}
		if s.l2tlb != nil {
			reg(tel.Rate(fmt.Sprintf("app%d/l2tlb/hit_rate", app),
				func() float64 { return float64(s.l2tlb.AppStats(app).Hits) },
				func() float64 { return float64(s.l2tlb.AppStats(app).Accesses) }))
		}
		if s.tokens.Enabled() {
			reg(tel.Gauge(fmt.Sprintf("app%d/tokens", app), func() float64 {
				return float64(s.tokens.Tokens(app))
			}))
		}
	}

	// --- per-core stall attribution --------------------------------------
	// The four counters partition each core's cycle budget: a cycle either
	// issues an instruction or idles on translation (tlb), on data after
	// translation (mem), or outside the memory system (other). Their column
	// sums therefore add up to exactly the simulated cycle count per core.
	for _, core := range s.cores {
		c := core
		prefix := fmt.Sprintf("core%d/stall/", c.ID())
		reg(tel.Counter(prefix+"issue", func() float64 { return float64(c.Stats.Instructions) }))
		reg(tel.Counter(prefix+"tlb", func() float64 { return float64(c.Stats.IdleTransCycles) }))
		reg(tel.Counter(prefix+"mem", func() float64 { return float64(c.Stats.IdleDataCycles) }))
		reg(tel.Counter(prefix+"other", func() float64 { return float64(c.Stats.IdleOtherCycles) }))
	}

	// --- page table walker ------------------------------------------------
	if s.cfg.Design != DesignIdeal {
		hist := metrics.NewHistogram()
		s.walker.SetLatencyHistogram(hist)
		reg(tel.Gauge("ptw/queue_depth", func() float64 { return float64(s.walker.QueuedWalks()) }))
		reg(tel.Gauge("ptw/active_walks", func() float64 { return float64(s.walker.ActiveWalks()) }))
		reg(tel.Counter("ptw/walks_completed", func() float64 { return float64(s.walker.Stats.Completed) }))
		for _, q := range []struct {
			suffix string
			p      float64
		}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
			p := q.p
			reg(tel.Gauge("ptw/walk_lat_"+q.suffix, func() float64 {
				v := hist.Quantile(p)
				if math.IsNaN(v) {
					return 0 // no completed walks yet
				}
				return v
			}))
		}
	}

	// --- shared L2 TLB ----------------------------------------------------
	if s.l2tlb != nil {
		reg(tel.Gauge("l2tlb/queue", func() float64 { return float64(s.l2tlb.QueueLen()) }))
		reg(tel.Gauge("l2tlb/outstanding_misses", func() float64 { return float64(s.l2tlb.OutstandingMisses()) }))
		reg(tel.Rate("l2tlb/miss_rate",
			func() float64 { return float64(s.l2tlb.TotalStats().Misses) },
			func() float64 { return float64(s.l2tlb.TotalStats().Accesses) }))
		if s.cfg.Mask.Tokens {
			reg(tel.Gauge("l2tlb/bypass_hit_rate", func() float64 { return s.l2tlb.BypassHitRate() }))
		}
	}

	// --- demand paging ----------------------------------------------------
	if s.faults != nil {
		reg(tel.Gauge("faults/outstanding", func() float64 { return float64(s.faults.Outstanding()) }))
	}

	// --- DRAM queues ------------------------------------------------------
	// The occupancy matrix is computed once per epoch by an OnSample hook;
	// the per-channel and per-bank gauges read the cached snapshot.
	var snap []dram.ChannelSnapshot
	tel.OnSample(func(int64) { snap = s.mem.QueueSnapshot(snap) })
	sumClass := func(pick func(dram.ChannelSnapshot) int) func() float64 {
		return func() float64 {
			n := 0
			for _, cs := range snap {
				n += pick(cs)
			}
			return float64(n)
		}
	}
	reg(tel.Gauge("dram/queued", sumClass(dram.ChannelSnapshot.Total)))
	reg(tel.Gauge("dram/golden", sumClass(func(cs dram.ChannelSnapshot) int { return cs.Golden })))
	reg(tel.Gauge("dram/silver", sumClass(func(cs dram.ChannelSnapshot) int { return cs.Silver })))
	reg(tel.Gauge("dram/normal", sumClass(func(cs dram.ChannelSnapshot) int { return cs.Normal })))
	reg(tel.Gauge("dram/inflight", func() float64 { return float64(s.mem.Inflight()) }))
	for ch := 0; ch < s.cfg.DRAM.Channels; ch++ {
		chIdx := ch
		reg(tel.Gauge(fmt.Sprintf("dram/chan%d/queued", chIdx), func() float64 {
			return float64(snap[chIdx].Total())
		}))
		for b := 0; b < s.cfg.DRAM.BanksPerChannel; b++ {
			bIdx := b
			reg(tel.Gauge(fmt.Sprintf("dram/chan%d/bank%d/queued", chIdx, bIdx), func() float64 {
				if bIdx >= len(snap[chIdx].PerBank) {
					return 0 // scheduler without queue inspection
				}
				return float64(snap[chIdx].PerBank[bIdx])
			}))
		}
	}

	// --- streaming sink ---------------------------------------------------
	// Bound after every probe is registered: binding fixes the column
	// catalogue and writes each attached output's prelude.
	if s.cfg.TelemetrySink != nil {
		if err := tel.SetSink(s.cfg.TelemetrySink); err != nil {
			panic(err) // double-bind or no outputs: wiring bug at the call site
		}
	}

	// --- event sinks and tick registration --------------------------------
	if plan := s.cfg.FaultPlan; plan != nil {
		plan.SetEventSink(tel)
	}
	// Register last so every snapshot reflects a fully-ticked cycle.
	s.eng.Register(tel)
}
