package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"masksim/internal/cache"
	"masksim/internal/dram"
	"masksim/internal/engine"
	"masksim/internal/faultinject"
	"masksim/internal/gpu"
	"masksim/internal/memreq"
	"masksim/internal/pagetable"
	"masksim/internal/ptw"
	"masksim/internal/slab"
	"masksim/internal/telemetry"
	"masksim/internal/tlb"
	"masksim/internal/workload"
)

// heapBase is the virtual address where each application's footprint starts.
// Address spaces are independent (per-ASID page tables), so all apps share
// the same base.
const heapBase = uint64(2) << 32

// Simulator is a fully wired simulated GPU running one or more applications.
// Build with New (or Recycler.New), run once with Run.
type Simulator struct {
	cfg         Config
	eng         *engine.Engine
	apps        []workload.App
	coresPerApp []int

	alloc  *pagetable.Allocator
	spaces []*pagetable.Space

	// l1dNames[i] is core i's L1D name.
	l1dNames []string

	cores  []*gpu.Core
	l1tlbs []*tlb.L1TLB
	l1ds   []*cache.Cache

	l2tlb  *tlb.L2TLB
	walker *ptw.Walker
	faults *ptw.FaultUnit
	pwc    *cache.Cache
	l2c    *cache.Cache
	mem    *dram.DRAM

	ata    *cache.ATABypass
	tokens *tlb.TokenPolicy

	// The request free lists, one per kind, which every component that
	// issues or completes requests holds, and their sink tables, which the
	// components register in as they are built. Per-instance ownership keeps
	// concurrent simulators race-free; a checkpoint records none of it
	// (docs/MODEL.md §1, §9).
	reqPool   memreq.Pool
	transPool memreq.TransPool

	// tel is the telemetry collector, nil unless Config.TelemetryEpoch > 0.
	tel *telemetry.Collector

	epoch int64
	// ran is set when Run starts and clean when it returns without error:
	// only a clean simulator may be recycled (Recycler.Put).
	ran, clean bool

	// Checkpoint machinery (docs/MODEL.md §9).
	ckptStats   CheckpointStats
	totalCycles int64  // the run's cycle budget, for checkpoint headers
	fp          string // cached Fingerprint

	// curWD is the watchdog supervising the in-progress run; the checkpoint
	// hook captures its state mid-run.
	curWD *engine.Watchdog
	// restored* carry state from RestoreCheckpoint into the next Run, which
	// must use the budget the checkpoint records (totalCycles).
	restored   bool
	restoredWD *engine.WatchdogState
}

// New wires a simulator for the given applications. coresPerApp[i] cores are
// dedicated to apps[i]; the total must not exceed cfg.Cores. (The paper
// spatially partitions cores between address spaces; §6 describes an oracle
// partitioning, which the experiments package approximates.)
func New(cfg Config, apps []workload.App, coresPerApp []int) (*Simulator, error) {
	return new(Recycler).New(cfg, apps, coresPerApp)
}

// Recycler keeps simulators whose runs have ended so the next one is rebuilt
// in place over their small buffers — queues, maps, trackers, free stacks,
// the several thousand objects a cold simulator allocates one by one —
// instead of from nothing: a campaign is hundreds of short cells. The zero
// Recycler is ready to use and safe for concurrent use; it is a plain LIFO
// the collector never empties, so what a simulator is rebuilt over depends on
// nothing but the calls made.
//
// A recycled simulator is indistinguishable from a new one (docs/MODEL.md
// §11): every constructor zeroes the instance it rebuilds and takes only
// emptied buffers from it.
type Recycler struct {
	mu   sync.Mutex
	idle []*Simulator
}

// New is sim.New over the most recently returned simulator, if there is one.
// A request that fails validation leaves the recycler as it was.
func (r *Recycler) New(cfg Config, apps []workload.App, coresPerApp []int) (*Simulator, error) {
	if err := validate(cfg, apps, coresPerApp); err != nil {
		return nil, err
	}
	var s *Simulator
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		s, r.idle[n-1] = r.idle[n-1], nil
		r.idle = r.idle[:n-1]
	}
	r.mu.Unlock()
	s, donor := slab.Lift(s)
	s.cfg, s.apps, s.coresPerApp = cfg, apps, coresPerApp
	s.build(&donor)
	return s, nil
}

// Put hands s back for reuse. The caller must not touch s afterwards; the
// Results it returned stay valid, they share no memory with it. Only a
// simulator whose Run returned without error is kept: one that panicked,
// was aborted by the watchdog or its context, or never ran may hold state no
// rebuild has been tested against, and is left to the collector.
//
// What is kept is retired at once: the simulator lets go of everything the
// next build will not reuse — its line arrays, streams, page tables and
// requests, its configuration and whatever that points to — so the recycler
// holds some two megabytes per simulator, not a finished run, and the next
// build never has the last run's memory reachable beside its own.
func (r *Recycler) Put(s *Simulator) {
	if s == nil || !s.clean {
		return
	}
	s.retire() // clears clean: a second Put of the same run is a no-op
	r.mu.Lock()
	r.idle = append(r.idle, s)
	r.mu.Unlock()
}

// retire reduces s to what build reuses: its ticking components, retired, and
// its two request pools, renewed.
func (s *Simulator) retire() {
	d := *s
	for _, c := range d.cores {
		c.Retire()
	}
	for _, c := range d.l1ds {
		c.Retire()
	}
	d.l2c.Retire()
	if d.pwc != nil {
		d.pwc.Retire()
	}
	d.walker.Retire()
	if d.l2tlb != nil {
		d.l2tlb.Retire()
	}
	d.mem.Retire()
	d.reqPool.Renew()
	d.transPool.Renew()
	*s = Simulator{
		eng:    engine.Renew(d.eng),
		cores:  d.cores,
		l1tlbs: d.l1tlbs,
		l1ds:   d.l1ds,
		l2tlb:  d.l2tlb,
		walker: d.walker,
		pwc:    d.pwc,
		l2c:    d.l2c,
		mem:    d.mem,

		reqPool:   d.reqPool,
		transPool: d.transPool,
		l1dNames:  d.l1dNames,
	}
}

// Len reports how many simulators wait to be rebuilt.
func (r *Recycler) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.idle)
}

// validate rejects a simulation New cannot build.
func validate(cfg Config, apps []workload.App, coresPerApp []int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(apps) == 0 {
		return fmt.Errorf("sim: at least one application required")
	}
	if len(apps) != len(coresPerApp) {
		return fmt.Errorf("sim: %d apps but %d core assignments", len(apps), len(coresPerApp))
	}
	total := 0
	for i, n := range coresPerApp {
		if n < 1 {
			return fmt.Errorf("sim: app %d assigned %d cores", i, n)
		}
		total += n
	}
	if total > cfg.Cores {
		return fmt.Errorf("sim: %d cores assigned but only %d exist", total, cfg.Cores)
	}
	if cfg.CheckpointDir != "" {
		if err := probeCheckpointDir(cfg.CheckpointDir); err != nil {
			return err
		}
	}
	return nil
}

// scheduledTick adapts a periodic action (epoch roll, time-mux eviction) to
// the engine's EventSource capability: fn runs on the activation cycles only,
// the positive multiples of interval(), and NextEvent reports the next one so
// fast-forward never jumps over it. interval is a closure because the epoch
// length is finalized in Run, after registration.
type scheduledTick struct {
	fn       func(now int64)
	interval func() int64
}

func (t scheduledTick) Tick(now int64) {
	if iv := t.interval(); iv > 0 && now > 0 && now%iv == 0 {
		t.fn(now)
	}
}

func (t scheduledTick) NextEvent(now int64) int64 {
	iv := t.interval()
	if iv <= 0 {
		return engine.NoEvent
	}
	if now > 0 && now%iv == 0 {
		return now
	}
	return (now/iv + 1) * iv
}

// panicTick wraps a fault plan's scheduled panic/kill as an EventSource so a
// fast-forwarded run still detonates at exactly the configured cycle.
type panicTick struct{ plan *faultinject.Plan }

func (t panicTick) Tick(now int64) {
	t.plan.TickPanic(now)
	t.plan.TickKill(now)
}

func (t panicTick) NextEvent(now int64) int64 {
	next := int64(engine.NoEvent)
	if at := t.plan.PanicAtCycle; at > 0 && now <= at {
		next = at
	}
	if at := t.plan.KillAtCycle; at > 0 && now <= at && (next == engine.NoEvent || at < next) {
		next = at
	}
	return next
}

// build wires the simulator from s.cfg, s.apps and s.coresPerApp over d, the
// simulator it replaces (the zero Simulator for a new one). Every component
// that ticks is its package's Renew over the matching component of d, so the
// wiring below is the only wiring there is; a component the new design does
// not have is dropped with d, but for d's collector, which only a rebuild
// after a rejected restore keeps: it hands over the sink it bound. The line
// arena, the address spaces and the warp streams are built new: they are
// most of a simulator's bytes and none of its allocation count
// (docs/MODEL.md §11).
func (s *Simulator) build(d *Simulator) {
	cfg := s.cfg
	numApps := len(s.apps)
	s.eng = engine.Renew(d.eng)
	s.eng.SetFastForward(cfg.FastForward)
	s.alloc = pagetable.NewAllocator()

	// One shared arena backs every cache's line array (L2, page walk cache,
	// per-core L1Ds): a single construction-time allocation instead of one
	// per cache.
	arenaLines := cache.ArenaLines(cfg.L2Cache.SizeBytes, cfg.L2Cache.LineSize, cfg.L2Cache.Ways)
	if cfg.Design == DesignPWCache {
		arenaLines += cache.ArenaLines(cfg.PWCache.SizeBytes, cfg.PWCache.LineSize, cfg.PWCache.Ways)
	}
	assignedCores := 0
	for _, n := range s.coresPerApp {
		assignedCores += n
	}
	arenaLines += assignedCores * cache.ArenaLines(cfg.L1Cache.SizeBytes, cfg.L1Cache.LineSize, cfg.L1Cache.Ways)
	arena := cache.NewLineArena(arenaLines)

	s.reqPool, s.transPool = d.reqPool, d.transPool // retire renewed them

	// --- DRAM -----------------------------------------------------------
	s.mem = dram.Renew(d.mem, cfg.DRAM, dram.SchedConfig{Policy: cfg.DRAMPolicy, Apps: numApps, ThreshMax: cfg.ThreshMax, Pressure: func(app int) (float64, float64) {
		// Pressure metrics come from the shared TLB's MSHRs (§5.4); the
		// closure resolves lazily because the L2 TLB is built after DRAM.
		if s.l2tlb == nil {
			return 0, 0
		}
		return s.l2tlb.Pressure(app)
	}}, &s.reqPool)

	// --- shared L2 data cache --------------------------------------------
	s.l2c = cache.Renew(d.l2c, cache.Config{
		Name:         "L2",
		SizeBytes:    cfg.L2Cache.SizeBytes,
		Ways:         cfg.L2Cache.Ways,
		LineSize:     cfg.L2Cache.LineSize,
		Banks:        cfg.L2Cache.Banks,
		PortsPerBank: cfg.L2Cache.PortsPerBank,
		Latency:      cfg.L2Cache.Latency,
		QueueCap:     cfg.L2Cache.QueueCap,
		MSHRs:        cfg.L2Cache.MSHRs,
		WriteBack:    true,
		Arena:        arena,
	}, s.mem, &s.reqPool)
	if cfg.Design == DesignStatic {
		s.l2c.SetWayPartition(wayMasks(cfg.L2Cache.Ways, numApps))
	}
	if cfg.Mask.L2Bypass {
		s.ata = cache.NewATABypass(s.l2c)
	}

	// --- page walk cache (PWCache design only) ---------------------------
	walkBackend := cache.Backend(s.l2c)
	if cfg.Design == DesignPWCache {
		s.pwc = cache.Renew(d.pwc, cache.Config{
			Name:         "PWCache",
			SizeBytes:    cfg.PWCache.SizeBytes,
			Ways:         cfg.PWCache.Ways,
			LineSize:     cfg.PWCache.LineSize,
			Banks:        cfg.PWCache.Banks,
			PortsPerBank: cfg.PWCache.PortsPerBank,
			Latency:      cfg.PWCache.Latency,
			QueueCap:     cfg.PWCache.QueueCap,
			MSHRs:        cfg.PWCache.MSHRs,
			Arena:        arena,
		}, s.l2c, &s.reqPool)
		walkBackend = s.pwc
	}

	// --- walker and shared L2 TLB ----------------------------------------
	s.walker = ptw.Renew(d.walker, walkerConcurrency, walkBackend, &s.reqPool, &s.transPool)
	if cfg.DemandPaging {
		s.faults = ptw.NewFaultUnit(cfg.FaultLatency, cfg.FaultConcurrency)
		s.walker.SetFaultUnit(s.faults)
	}
	s.tokens = tlb.NewTokenPolicy(numApps, cfg.WarpsPerCore, cfg.TokenInitFraction, cfg.Mask.Tokens)
	if cfg.Design == DesignSharedTLB || cfg.Design == DesignStatic {
		bypassSize := 0
		if cfg.Mask.Tokens {
			bypassSize = BypassCacheEntries
		}
		s.l2tlb = tlb.RenewL2(d.l2tlb, tlb.L2Config{
			Entries:    cfg.L2TLBEntries,
			Ways:       cfg.L2TLBWays,
			Ports:      l2TLBPorts,
			Latency:    l2TLBLatency,
			QueueCap:   l2TLBQueueCap,
			BypassSize: bypassSize,
			NumApps:    numApps,
		}, s.walker, s.tokens, &s.transPool)
		s.walker.SetWalkSink(s.l2tlb)
		if cfg.Design == DesignStatic {
			s.l2tlb.SetWayPartition(wayMasks(cfg.L2TLBWays, numApps))
		}
		if cfg.TLBPrefetch {
			s.l2tlb.SetPrefetcher(tlb.NewPrefetcher(), func(asid uint8, vpn uint64) bool {
				idx := int(asid) - 1
				if idx < 0 || idx >= len(s.spaces) {
					return false
				}
				_, ok := s.spaces[idx].TranslateVPN(vpn)
				return ok
			})
		}
	}

	// --- address spaces ---------------------------------------------------
	s.spaces = make([]*pagetable.Space, numApps)
	for i, app := range s.apps {
		if cfg.Design == DesignStatic {
			// Confine the app's frames (data and page-table nodes) to its
			// DRAM channel partition.
			chans := channelPartition(cfg.DRAM.Channels, numApps, i)
			s.alloc.SetConstraint(func(frame uint64) bool {
				return chans[s.mem.ChannelOfFrame(frame)]
			})
		}
		sp := pagetable.NewSpace(uint8(i+1), cfg.PageSize, s.alloc)
		s.spaces[i] = sp
		appWarps := s.coresPerApp[i] * cfg.WarpsPerCore
		if app.Trace != nil {
			for _, va := range app.Trace.Pages(cfg.PageSize) {
				sp.EnsureMapped(va)
			}
		} else {
			app.Profile.PagesToMap(heapBase, cfg.PageSize, appWarps, func(va uint64) { sp.EnsureMapped(va) })
		}
		s.walker.AddSpace(sp)
	}
	s.alloc.SetConstraint(nil)

	// --- cores ------------------------------------------------------------
	s.cores, s.l1ds, s.l1tlbs = d.cores[:0], d.l1ds[:0], d.l1tlbs[:0]
	s.l1dNames = d.l1dNames // a name depends on nothing but its index
	for len(s.l1dNames) < assignedCores {
		s.l1dNames = append(s.l1dNames, fmt.Sprintf("L1D.%d", len(s.l1dNames)))
	}
	// gpu.Renew copies its streams out, so one scratch list serves every core.
	streams := make([]*workload.Stream, cfg.WarpsPerCore)
	coreID := 0
	for appIdx, app := range s.apps {
		appWarps := s.coresPerApp[appIdx] * cfg.WarpsPerCore
		space := s.spaces[appIdx]
		factory := workload.NewStreamFactory(app.Profile, heapBase, cfg.PageSize,
			cfg.L1Cache.LineSize, appWarps, app.Seed)
		for local := 0; local < s.coresPerApp[appIdx]; local++ {
			l1d := cache.Renew(slab.Donor(d.l1ds, coreID), cache.Config{
				Name:               s.l1dNames[coreID],
				SizeBytes:          cfg.L1Cache.SizeBytes,
				Ways:               cfg.L1Cache.Ways,
				LineSize:           cfg.L1Cache.LineSize,
				Banks:              cfg.L1Cache.Banks,
				PortsPerBank:       cfg.L1Cache.PortsPerBank,
				Latency:            cfg.L1Cache.Latency,
				QueueCap:           cfg.L1Cache.QueueCap,
				MSHRs:              cfg.L1Cache.MSHRs,
				WriteCombineWindow: cfg.L1Cache.WriteCombineWindow,
				Arena:              arena,
			}, s.l2c, &s.reqPool)
			s.l1ds = append(s.l1ds, l1d)

			var l1 *tlb.L1TLB
			var translate gpu.TranslateFn // nil: Ideal, every page hits at once
			if cfg.Design != DesignIdeal {
				var transBackend tlb.TransBackend = s.walker
				if s.l2tlb != nil {
					transBackend = s.l2tlb
				}
				l1 = tlb.RenewL1(slab.Donor(d.l1tlbs, coreID), coreID, appIdx, space.ASID(), cfg.L1TLBEntries, transBackend, &s.transPool)
				s.l1tlbs = append(s.l1tlbs, l1)
				app := appIdx
				translate = func(now int64, vpn uint64, warpID, slot int) bool {
					return l1.Lookup(now, vpn, warpID, slot, s.tokens.HasToken(app, warpID))
				}
			}

			for w := 0; w < cfg.WarpsPerCore; w++ {
				if app.Trace != nil {
					streams[w] = app.Trace.NewStream(local*cfg.WarpsPerCore+w,
						cfg.PageSize, cfg.L1Cache.LineSize)
				} else {
					streams[w] = factory.New(local*cfg.WarpsPerCore + w)
				}
			}
			core := gpu.Renew(slab.Donor(d.cores, coreID), coreID, appIdx, gpu.Config{
				WarpsPerCore: cfg.WarpsPerCore,
				RoundRobin:   cfg.RoundRobinSched,
			}, space, streams, translate, l1d, &s.reqPool)
			if l1 != nil {
				l1.SetWaker(core)
			}
			s.cores = append(s.cores, core)
			coreID++
		}
	}

	// --- tick order --------------------------------------------------------
	for _, c := range s.cores {
		s.eng.Register(c)
	}
	for _, t := range s.l1tlbs {
		s.eng.Register(t)
	}
	if s.l2tlb != nil {
		s.eng.Register(s.l2tlb)
	}
	if cfg.Design != DesignIdeal {
		s.eng.Register(s.walker)
	}
	if s.faults != nil {
		s.eng.Register(s.faults)
	}
	if s.pwc != nil {
		s.eng.Register(s.pwc)
	}
	for _, d := range s.l1ds {
		s.eng.Register(d)
	}
	s.eng.Register(s.l2c)
	s.eng.Register(s.mem)
	s.eng.Register(scheduledTick{fn: s.epochTick, interval: func() int64 { return s.epoch }})
	if cfg.TimeMuxQuantum > 0 {
		s.eng.Register(scheduledTick{fn: s.timeMuxTick, interval: func() int64 { return s.cfg.TimeMuxQuantum }})
	}

	// --- telemetry ---------------------------------------------------------
	s.buildTelemetry(d.tel)

	// --- fault injection ---------------------------------------------------
	// A plan registers no request sink, so a run killed by one restores onto
	// a plan-free simulator with every route still aligned — fingerprints
	// deliberately ignore FaultPlan, and resume drops the flag.
	if plan := cfg.FaultPlan; plan != nil && plan.Active() {
		if cfg.Design != DesignIdeal {
			s.walker.SetWedgeHook(plan.WedgeWalk)
		}
		s.mem.SetDropHook(plan.DropResponse)
		s.eng.Register(panicTick{plan: plan})
	}
}

// watchdogStallChecks is how many consecutive checks without progress the
// watchdog tolerates before it aborts the run.
const watchdogStallChecks = 4

// watchdog builds the progress watchdog for one run, wiring progress probes
// (instructions retired, walks completed, DRAM requests serviced) and the
// per-component diagnostic dump. Returns nil when disabled.
func (s *Simulator) watchdog() *engine.Watchdog {
	if s.cfg.WatchdogCheckEvery <= 0 {
		return nil
	}
	wd := engine.NewWatchdog(s.cfg.WatchdogCheckEvery, watchdogStallChecks)
	if s.tel != nil {
		wd.SetEventSink(s.tel)
	}

	wd.Observe(func() uint64 {
		var n uint64
		for _, c := range s.cores {
			n += c.Stats.Instructions
		}
		return n
	})
	wd.Observe(func() uint64 { return s.walker.Stats.Completed })
	wd.Observe(func() uint64 {
		return s.mem.Class[memreq.Data].Requests + s.mem.Class[memreq.Translation].Requests
	})

	wd.Diagnose("walker", func() string {
		return fmt.Sprintf("active=%d queued=%d completed=%d",
			s.walker.ActiveWalks(), s.walker.QueuedWalks(), s.walker.Stats.Completed)
	})
	if s.l2tlb != nil {
		wd.Diagnose("l2tlb", func() string {
			return fmt.Sprintf("queued=%d outstandingMisses=%d",
				s.l2tlb.QueueLen(), s.l2tlb.OutstandingMisses())
		})
	}
	wd.Diagnose("l2cache", func() string {
		return fmt.Sprintf("queued=%d outstandingMisses=%d",
			s.l2c.QueueOccupancy(), s.l2c.OutstandingMisses())
	})
	if s.pwc != nil {
		wd.Diagnose("pwcache", func() string {
			return fmt.Sprintf("queued=%d outstandingMisses=%d",
				s.pwc.QueueOccupancy(), s.pwc.OutstandingMisses())
		})
	}
	wd.Diagnose("dram", func() string {
		return fmt.Sprintf("queued=%d inflight=%d", s.mem.QueueLen(), s.mem.Inflight())
	})
	if s.tokens.Enabled() {
		wd.Diagnose("tokens", func() string {
			parts := make([]string, len(s.apps))
			for i := range s.apps {
				parts[i] = fmt.Sprintf("app%d=%d", i, s.tokens.Tokens(i))
			}
			return strings.Join(parts, " ")
		})
	}
	if s.faults != nil {
		wd.Diagnose("faults", func() string {
			return fmt.Sprintf("outstanding=%d", s.faults.Outstanding())
		})
	}
	return wd
}

// timeMuxTick models the state loss of coarse time multiplexing: every
// quantum, a fraction of TLB and cache state is evicted as if other
// processes had run in between (Figure 1).
func (s *Simulator) timeMuxTick(now int64) {
	f := s.cfg.TimeMuxEvict
	for _, t := range s.l1tlbs {
		t.FlushFraction(f)
	}
	if s.l2tlb != nil {
		s.l2tlb.FlushFraction(f)
	}
	for _, d := range s.l1ds {
		d.FlushFraction(now, f)
	}
	s.l2c.FlushFraction(now, f)
	if s.pwc != nil {
		s.pwc.FlushFraction(now, f)
	}
}

// epochTick rolls the adaptive policies on epoch boundaries.
func (s *Simulator) epochTick(int64) {
	if s.l2tlb != nil {
		rates := s.l2tlb.EpochRoll()
		s.tokens.Epoch(rates)
	}
	if s.ata != nil {
		s.ata.Roll()
	}
	s.mem.Epoch()
}

// wayMasks splits ways evenly across apps, assigning the remainder to the
// first apps.
func wayMasks(ways, numApps int) []uint64 {
	masks := make([]uint64, numApps)
	per := ways / numApps
	if per < 1 {
		per = 1
	}
	w := 0
	for i := range masks {
		for j := 0; j < per && w < ways; j++ {
			masks[i] |= 1 << uint(w)
			w++
		}
		if masks[i] == 0 {
			// More apps than ways: share the last way.
			masks[i] = 1 << uint(ways-1)
		}
	}
	// Distribute leftover ways to the first apps.
	for i := 0; w < ways; i, w = (i+1)%numApps, w+1 {
		masks[i] |= 1 << uint(w)
	}
	return masks
}

// channelPartition returns the channel-membership set for app i of numApps.
func channelPartition(channels, numApps, i int) []bool {
	set := make([]bool, channels)
	per := channels / numApps
	if per < 1 {
		per = 1
	}
	start := (i * per) % channels
	for j := 0; j < per; j++ {
		set[(start+j)%channels] = true
	}
	// When channels don't divide evenly, give the spare channels to the
	// first apps.
	if channels >= numApps && i < channels%numApps {
		set[numApps*per+i] = true
	}
	return set
}

// Run advances the simulation by cycles under supervision and returns the
// collected results. The context bounds the run's wall-clock time
// (context.WithTimeout) and supports cancellation; the configured watchdog
// aborts wedged runs. On abort the returned Results still carry the
// statistics accumulated up to the abort cycle (Results.Aborted is set) along
// with a non-nil error. A Simulator runs once per build: to simulate again,
// build another with New, or hand this one to a Recycler after a clean run and
// let Recycler.New rebuild it in place.
//
// cycles is the total cycle budget of the simulation. On a simulator restored
// from a checkpoint (RestoreCheckpoint, or Config.Resume) only the remaining
// cycles are simulated, and the budget must match the interrupted run's.
func (s *Simulator) Run(ctx context.Context, cycles int64) (*Results, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Simulator already ran; build another with New or Recycler.New")
	}
	if cycles <= 0 {
		return nil, fmt.Errorf("sim: run length must be >= 1 cycle, got %d", cycles)
	}
	// Auto-resume: adopt the newest checkpoint of this exact simulation
	// that restores, if one does. Rejected files are skipped (counted in
	// CheckpointStats.Rejected); with none the run starts clean.
	if !s.restored && s.cfg.Resume && s.cfg.CheckpointDir != "" {
		if err := s.restoreFromDir(s.cfg.CheckpointDir, cycles); err != nil {
			return nil, err
		}
	}
	if s.restored && s.totalCycles != cycles {
		return nil, fmt.Errorf("sim: checkpoint was taken in a %d-cycle run, resumed with %d",
			s.totalCycles, cycles)
	}
	s.ran = true
	s.totalCycles = cycles

	// Scale the adaptation epoch for short runs so tokens and the bypass
	// policy still adapt several times (DESIGN.md §5). Pure function of the
	// budget, so a restored run reproduces it.
	s.epoch = max(1, min(epochCycles, cycles/8))

	wd := s.watchdog()
	if s.restoredWD != nil && wd != nil {
		wd.SetState(*s.restoredWD)
	}
	s.restoredWD = nil // consumed: from here the live watchdog is the state
	s.curWD = wd
	if s.cfg.CheckpointEvery > 0 && s.cfg.CheckpointDir != "" {
		s.eng.SetCheckpointHook(s.cfg.CheckpointEvery, func(now int64) {
			// Periodic checkpoints are best-effort: a full disk must not
			// abort an otherwise healthy run.
			s.writeCheckpointFile(s.checkpointPath(now))
		})
	}

	err := s.eng.RunContext(ctx, cycles-s.eng.Now(), wd)
	s.curWD = nil
	if err != nil && s.cfg.CheckpointDir != "" {
		var dead *engine.DeadlockError
		if errors.As(err, &dead) {
			// Crash checkpoint: the full wedged state at the abort cycle,
			// evidence for post-mortem inspection (masksim
			// -inspect-checkpoint), never a resume point.
			s.curWD = wd
			s.writeCheckpointFile(s.crashCheckpointPath())
			s.curWD = nil
		} else if ctx != nil && ctx.Err() != nil && s.cfg.CheckpointEvery > 0 {
			// Graceful interruption (SIGINT/SIGTERM via context cancel):
			// save exactly where we stopped so a restart loses nothing.
			s.writeCheckpointFile(s.checkpointPath(s.eng.Now()))
		}
	}
	res := s.collect(s.eng.Now())
	if err != nil {
		res.Aborted = true
		res.AbortReason = err.Error()
	}
	s.clean = err == nil
	return res, err
}
