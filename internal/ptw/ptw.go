// Package ptw implements the shared, highly-threaded page table walker.
//
// All cores share one walker that admits up to MaxConcurrent simultaneous
// walks (64 in the paper, after Pichai et al. and Power et al.). Each walk
// issues a chain of dependent physical memory reads, one per page-table
// level; the reads are tagged Class=Translation with their WalkLevel so that
// the L2 cache's bypass policy (§5.3) and the DRAM scheduler's Golden Queue
// (§5.4) can distinguish them from data demand traffic.
//
// Under the PWCache baseline the walker's memory backend is the shared page
// walk cache (an 8KB cache in front of the L2); under SharedTLB and MASK the
// walker accesses the L2 data cache directly (Figure 2 of the paper).
package ptw

import (
	"masksim/internal/cache"
	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/metrics"
	"masksim/internal/pagetable"
	"masksim/internal/slab"
)

// Stats aggregates walker activity.
type Stats struct {
	Started   uint64
	Completed uint64
	LatSum    uint64

	// Concurrency sampling for the Figure 5 metric.
	Samples    uint64
	ActiveSum  uint64
	ActiveMax  int
	ActivePeak int // including queued walks
}

// AvgLatency returns the mean walk latency in cycles.
func (s Stats) AvgLatency() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.LatSum) / float64(s.Completed)
}

// AvgConcurrent returns the average number of in-flight walks per sample.
func (s Stats) AvgConcurrent() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.ActiveSum) / float64(s.Samples)
}

// walk is the per-walk state. Walk objects are recycled through the
// walker's free list once finished; reqDone is bound once at first
// allocation so steady-state walks allocate neither the walk nor the
// completion closure of its per-level memory reads.
type walk struct {
	asid  uint8
	appID int
	vpn   uint64
	// Exactly one of done / tr is set: done for walks started via StartWalk
	// (shared-TLB fills, prefetches), tr for L1 misses routed straight to
	// the walker under the PWCache design (completed via tr.Complete so the
	// TransReq recycles into its pool).
	done func(now int64, frame uint64)
	tr   *memreq.TransReq

	addrs    []uint64
	level    int // next 1-based level to issue
	waiting  bool
	finished bool
	start    int64
	buf      [4]uint64

	// origin records which kind of continuation done/tr is, and serial is a
	// per-walker monotonic walk number; together they let checkpoint restore
	// rebind the walk's callbacks (docs/MODEL.md §9).
	origin WalkOrigin
	serial uint64

	reqDone func(now int64, r *memreq.Request)
}

// WalkOrigin identifies where a walk's completion continuation lives, so a
// restored walk can be relinked to it.
type WalkOrigin uint8

const (
	// OriginExternal: a caller outside the simulator's wiring (tests); the
	// continuation cannot be rebuilt across a checkpoint.
	OriginExternal WalkOrigin = iota
	// OriginL2Miss: done is a shared-TLB MSHR fill (tlb.L2TLB.MissDone).
	OriginL2Miss
	// OriginPrefetch: done installs a prefetched translation
	// (tlb.L2TLB.PrefetchDone).
	OriginPrefetch
	// OriginTrans: tr is set; completion is tr.Complete (PWCache design).
	OriginTrans
)

// Walker is the shared page table walker.
type Walker struct {
	max     int
	backend cache.Backend
	spaces  map[uint8]*pagetable.Space
	idgen   *memreq.IDGen

	active  []*walk
	pending []*walk
	// walkFree recycles finished walk objects.
	walkFree slab.List[walk]
	// pool recycles the walker's per-level memory read requests; New creates
	// a private pool, the simulator injects its shared one.
	pool *memreq.Pool

	perAppActive []int

	// serialSeq numbers walks for checkpoint relinking (walk.serial).
	serialSeq uint64
	// resolveDone, installed by the simulator, rebuilds a restored walk's
	// completion callback from its origin coordinates.
	resolveDone func(origin WalkOrigin, asid uint8, appID int, vpn uint64) (func(now int64, frame uint64), error)
	// bySerial indexes restored walks for the request link pass; populated
	// only by RestoreState.
	bySerial map[uint64]*walk

	// sampleEvery controls concurrency sampling (cycles); 0 disables.
	sampleEvery int64

	// faults, when non-nil, enables the demand-paging extension (§5.5).
	faults *FaultUnit

	// wedge is a fault-injection hook: when it returns true for a walk about
	// to issue a memory access, the walk is parked forever (it keeps its
	// walker slot and never completes). Used to prove the engine watchdog
	// detects translation deadlocks.
	wedge func(now int64) bool

	// latHist, when non-nil, records every completed walk's latency for
	// telemetry quantile probes. Nil (the default) costs one predictable
	// branch per completion.
	latHist *metrics.Histogram

	Stats Stats
}

// New builds a walker admitting maxConcurrent walks, reading page tables
// through backend.
func New(maxConcurrent int, backend cache.Backend, numApps int) *Walker {
	if maxConcurrent <= 0 {
		maxConcurrent = 64
	}
	return &Walker{
		max:          maxConcurrent,
		backend:      backend,
		spaces:       make(map[uint8]*pagetable.Space),
		idgen:        &memreq.IDGen{},
		pool:         &memreq.Pool{},
		perAppActive: make([]int, numApps),
		sampleEvery:  128,
	}
}

// SetRequestPool replaces the walker's private request pool with a shared
// per-simulator one. Must be called before simulation starts.
func (w *Walker) SetRequestPool(p *memreq.Pool) { w.pool = p }

// getWalk takes a walk object off the free list, binding the request
// completion handler of one handed out for the first time.
func (w *Walker) getWalk() *walk {
	wk, fresh := w.walkFree.Get()
	if fresh {
		wk.reqDone = func(now int64, _ *memreq.Request) { w.advance(now, wk) }
	}
	return wk
}

// AddSpace registers an address space so the walker can resolve its radix
// table. Must be called for every ASID before simulation starts.
func (w *Walker) AddSpace(s *pagetable.Space) {
	w.spaces[s.ASID()] = s
}

// StartWalk implements tlb.WalkStarter: queue a walk for (asid, vpn). The
// walk is tagged as a shared-TLB miss fill; callers outside the simulator's
// wiring (tests) get the same behavior but their walks cannot be relinked
// across a checkpoint.
func (w *Walker) StartWalk(now int64, asid uint8, appID int, vpn uint64, done func(now int64, frame uint64)) {
	w.start(now, asid, appID, vpn, done, nil, OriginL2Miss)
}

// StartPrefetchWalk implements tlb.WalkStarter for prediction-driven walks.
func (w *Walker) StartPrefetchWalk(now int64, asid uint8, appID int, vpn uint64, done func(now int64, frame uint64)) {
	w.start(now, asid, appID, vpn, done, nil, OriginPrefetch)
}

func (w *Walker) start(now int64, asid uint8, appID int, vpn uint64, done func(now int64, frame uint64), tr *memreq.TransReq, origin WalkOrigin) {
	sp, ok := w.spaces[asid]
	if !ok {
		panic("ptw: walk for unregistered ASID")
	}
	wk := w.getWalk()
	wk.asid, wk.appID, wk.vpn = asid, appID, vpn
	wk.done, wk.tr = done, tr
	wk.origin, wk.serial = origin, w.serialSeq
	w.serialSeq++
	wk.level, wk.start = 1, now
	wk.addrs = sp.WalkAddrsInto(vpn, wk.buf[:0])
	w.Stats.Started++
	if len(w.active) < w.max {
		w.admit(wk)
	} else {
		w.pending = append(w.pending, wk)
	}
	if total := len(w.active) + len(w.pending); total > w.Stats.ActivePeak {
		w.Stats.ActivePeak = total
	}
}

// SubmitTrans implements tlb.TransBackend so the PWCache design can route L1
// TLB misses straight to the walker. The pending queue is FIFO and
// unbounded: under heavy miss traffic it grows long and walks become very
// slow, which is precisely the PWCache design's weakness relative to a
// shared L2 TLB (Figure 3). FIFO order keeps walker admission fair across
// applications regardless of core tick order.
func (w *Walker) SubmitTrans(now int64, tr *memreq.TransReq) bool {
	w.start(now, tr.ASID, tr.AppID, tr.VPN, nil, tr, OriginTrans)
	return true
}

func (w *Walker) admit(wk *walk) {
	w.active = append(w.active, wk)
	if wk.appID >= 0 && wk.appID < len(w.perAppActive) {
		w.perAppActive[wk.appID]++
	}
}

// Tick issues the next dependent access for every walk that is not blocked
// on memory, admits queued walks into freed slots, and samples concurrency.
func (w *Walker) Tick(now int64) {
	// Compact finished walks (recycling their state) and admit pending ones.
	nkeep := 0
	for _, wk := range w.active {
		if !wk.finished {
			w.active[nkeep] = wk
			nkeep++
		} else {
			wk.done, wk.tr, wk.addrs = nil, nil, nil
			wk.waiting, wk.finished = false, false
			w.walkFree.Put(wk)
		}
	}
	for i := nkeep; i < len(w.active); i++ {
		w.active[i] = nil
	}
	w.active = w.active[:nkeep]
	for len(w.active) < w.max && len(w.pending) > 0 {
		wk := w.pending[0]
		copy(w.pending, w.pending[1:])
		w.pending = w.pending[:len(w.pending)-1]
		w.admit(wk)
	}

	for _, wk := range w.active {
		if wk.waiting || wk.finished {
			continue
		}
		w.issue(now, wk)
	}

	if w.sampleEvery > 0 && now%w.sampleEvery == 0 {
		w.Stats.Samples++
		w.Stats.ActiveSum += uint64(len(w.active))
		if len(w.active) > w.Stats.ActiveMax {
			w.Stats.ActiveMax = len(w.active)
		}
	}
}

// NextEvent implements engine.EventSource. The walker must be ticked at now
// when it has anything to do at its next tick: a finished walk to compact
// (compaction promptly is load-bearing — ActiveWalks feeds the L2 TLB's
// admission gate and telemetry, so deferring it would change results), a
// pending walk with a free slot to admit, or an unblocked walk to issue.
// Otherwise every active walk is waiting on a memory response delivered by
// another component's tick, so the walker is purely reactive.
func (w *Walker) NextEvent(now int64) int64 {
	for _, wk := range w.active {
		if wk.finished || !wk.waiting {
			return now
		}
	}
	if len(w.pending) > 0 && len(w.active) < w.max {
		return now
	}
	return engine.NoEvent
}

// SkipTo implements engine.Skipper: replay the concurrency sampling Tick
// performs at every multiple of sampleEvery inside [from, to). len(active) is
// frozen across a skipped span (walks only change state via ticks and
// callbacks, none of which run while everything is quiescent), so each missed
// sample point contributes the same reading.
func (w *Walker) SkipTo(from, to int64) {
	if w.sampleEvery <= 0 {
		return
	}
	n := multiplesIn(from, to, w.sampleEvery)
	if n == 0 {
		return
	}
	w.Stats.Samples += uint64(n)
	w.Stats.ActiveSum += uint64(n) * uint64(len(w.active))
	if len(w.active) > w.Stats.ActiveMax {
		w.Stats.ActiveMax = len(w.active)
	}
}

// multiplesIn counts the multiples of step in the half-open span [from, to).
func multiplesIn(from, to, step int64) int64 {
	first := ((from + step - 1) / step) * step
	if first >= to {
		return 0
	}
	return (to-1-first)/step + 1
}

// SetWedgeHook installs a fault-injection hook consulted each time a walk
// issues a memory access; returning true parks the walk permanently. Pass
// nil to clear.
func (w *Walker) SetWedgeHook(fn func(now int64) bool) {
	w.wedge = fn
}

// SetLatencyHistogram wires a histogram that receives every completed walk's
// latency in cycles (nil disables, the default).
func (w *Walker) SetLatencyHistogram(h *metrics.Histogram) {
	w.latHist = h
}

func (w *Walker) issue(now int64, wk *walk) {
	if w.wedge != nil && w.wedge(now) {
		// Mark the walk as waiting on a response that will never arrive.
		wk.waiting = true
		return
	}
	lvl := wk.level
	r := w.pool.Get()
	r.ID, r.AppID, r.ASID = w.idgen.Next(), wk.appID, wk.asid
	r.Kind, r.Class, r.WalkLevel = memreq.Read, memreq.Translation, uint8(lvl)
	r.Addr, r.Issue = wk.addrs[lvl-1], now
	r.Done = wk.reqDone
	r.Site, r.SiteRef = memreq.SiteWalk, wk.serial
	if w.backend.Submit(now, r) {
		wk.waiting = true
		return
	}
	// On refusal the walk retries next tick (with a fresh request; this one
	// goes straight back to the pool).
	r.Done = nil
	r.Complete(now, memreq.ServedNone)
}

func (w *Walker) advance(now int64, wk *walk) {
	wk.waiting = false
	wk.level++
	if wk.level <= len(wk.addrs) {
		return // next dependent access issues on the following tick
	}
	// Walk complete: resolve the frame from the radix table.
	sp := w.spaces[wk.asid]
	frame, ok := sp.TranslateVPN(wk.vpn)
	if !ok {
		panic("ptw: completed walk for unmapped page")
	}
	wk.finished = true
	if wk.appID >= 0 && wk.appID < len(w.perAppActive) {
		w.perAppActive[wk.appID]--
	}
	// The walk object is recycled at the next Tick's compaction, so anything
	// that may run later (the fault callback below) must capture these locals,
	// never wk itself.
	done, tr, start := wk.done, wk.tr, wk.start
	// Demand paging (§5.5): the walk found the PTE, but a non-resident page
	// must be faulted in before the translation is usable. The meta mirrors
	// the closure's captures so a checkpoint can serialize the held
	// continuation (frame is recomputed from the page table on restore).
	if w.faults != nil {
		meta := FaultMeta{Start: start, Origin: wk.origin, AppID: wk.appID, ASID: wk.asid, VPN: wk.vpn, Tr: tr}
		if !w.faults.touch(now, wk.asid, wk.vpn, func(fnow int64) {
			w.finishWalk(fnow, start, frame, done, tr)
		}, meta) {
			return
		}
	}
	w.finishWalk(now, start, frame, done, tr)
}

// finishWalk records completion stats and delivers the frame to whichever
// continuation the walk carries (tr.Complete recycles the TransReq into its
// pool; done is the plain callback form).
func (w *Walker) finishWalk(now, start int64, frame uint64, done func(int64, uint64), tr *memreq.TransReq) {
	w.Stats.Completed++
	w.Stats.LatSum += uint64(now - start)
	if w.latHist != nil {
		w.latHist.Observe(float64(now - start))
	}
	if tr != nil {
		tr.Complete(now, frame)
		return
	}
	done(now, frame)
}

// ActiveWalks returns the number of in-flight walks.
func (w *Walker) ActiveWalks() int { return len(w.active) }

// QueuedWalks returns the number of walks waiting for a slot.
func (w *Walker) QueuedWalks() int { return len(w.pending) }

// ActiveWalksForApp returns app's in-flight walk count; with the PWCache
// design (no shared TLB) this provides the ConPTW pressure metric.
func (w *Walker) ActiveWalksForApp(app int) int {
	if app < 0 || app >= len(w.perAppActive) {
		return 0
	}
	return w.perAppActive[app]
}
