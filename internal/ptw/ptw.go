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
// walker's free list once finished, so steady-state walks allocate nothing.
type walk struct {
	asid  uint8
	appID int
	vpn   uint64
	// origin is the only record of where the walk's result goes: to the
	// walker's WalkSink (shared-TLB fills, prefetches), or — OriginTrans, an
	// L1 miss routed straight to the walker under the PWCache design — to tr
	// (tr.Complete, so the TransReq recycles into its pool).
	origin WalkOrigin
	tr     *memreq.TransReq

	addrs    []uint64
	level    int // next 1-based level to issue
	waiting  bool
	finished bool
	start    int64
	buf      [4]uint64

	// serial numbers the walk in start order (Stats.Started before it
	// started); its per-level memory reads carry it as their Tag and
	// RequestDone finds the walk by it.
	serial uint64
}

// WalkOrigin identifies where a walk's result goes.
type WalkOrigin uint8

const (
	// OriginL2Miss: a shared-TLB demand miss; WalkDone fills its tracker.
	OriginL2Miss WalkOrigin = iota + 1
	// OriginPrefetch: a prediction; WalkDone installs the translation.
	OriginPrefetch
	// OriginTrans: the walk carries a TransReq and completes it (PWCache
	// design).
	OriginTrans
)

// WalkSink receives the result of every walk started through StartWalk, with
// the origin it was started with (the shared L2 TLB). Awaits reports whether
// a miss tracker waits for the demand walk of (asid, vpn); a restore checks
// every OriginL2Miss walk with it.
type WalkSink interface {
	WalkDone(now int64, asid uint8, appID int, vpn, frame uint64, origin WalkOrigin)
	Awaits(asid uint8, vpn uint64) bool
}

// Walker is the shared page table walker.
type Walker struct {
	max     int
	backend cache.Backend
	sink    WalkSink
	spaces  map[uint8]*pagetable.Space

	active  []*walk
	pending []*walk
	// walkFree recycles finished walk objects.
	walkFree slab.List[walk]
	// pool recycles the walker's per-level memory read requests: the
	// simulator's one pool.
	pool *memreq.Pool

	// perAppActive counts each app's unfinished active walks; a restore
	// recounts it.
	perAppActive []int

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
// through backend with requests from pool.
func New(maxConcurrent int, backend cache.Backend, numApps int, pool *memreq.Pool) *Walker {
	return Renew(nil, maxConcurrent, backend, numApps, pool)
}

// Renew is New built in place over a donor: w is retired and comes back as
// New would return it, over the donor's buffers where they fit
// (docs/MODEL.md §11). A nil donor allocates everything.
func Renew(w *Walker, maxConcurrent int, backend cache.Backend, numApps int, pool *memreq.Pool) *Walker {
	if maxConcurrent <= 0 {
		maxConcurrent = 64
	}
	if w == nil {
		w = new(Walker)
	}
	w.Retire()
	w.max, w.backend, w.pool, w.sampleEvery = maxConcurrent, backend, pool, 128
	w.spaces = slab.Map(w.spaces)
	w.perAppActive = slab.Slice(w.perAppActive, numApps)
	return w
}

// Retire empties w in place: what is left is the zero Walker but for the
// capacity of its space map, walk lists and objects and per-app counters,
// with nothing in them — no address space, no fault unit, no pool, no hook,
// no neighbour (cache.Cache.Retire has the why).
func (w *Walker) Retire() {
	d := *w
	d.walkFree.Rewind(nil)
	clear(d.spaces)
	*w = Walker{
		spaces:       d.spaces,
		active:       slab.Grown(d.active),
		pending:      slab.Grown(d.pending),
		walkFree:     d.walkFree,
		perAppActive: slab.Slice(d.perAppActive, 0),
	}
}

// SetWalkSink names the component StartWalk's results return to. Must be
// called before the first StartWalk.
func (w *Walker) SetWalkSink(s WalkSink) { w.sink = s }

// AddSpace registers an address space so the walker can resolve its radix
// table. Must be called for every ASID before simulation starts.
func (w *Walker) AddSpace(s *pagetable.Space) {
	w.spaces[s.ASID()] = s
}

// StartWalk implements tlb.WalkStarter: queue a walk for (asid, vpn) whose
// result goes to the walk sink with origin (OriginL2Miss or OriginPrefetch).
func (w *Walker) StartWalk(now int64, asid uint8, appID int, vpn uint64, origin WalkOrigin) {
	w.start(now, asid, appID, vpn, origin, nil)
}

func (w *Walker) start(now int64, asid uint8, appID int, vpn uint64, origin WalkOrigin, tr *memreq.TransReq) {
	sp, ok := w.spaces[asid]
	if !ok {
		panic("ptw: walk for unregistered ASID")
	}
	wk, _ := w.walkFree.Get()
	wk.asid, wk.appID, wk.vpn = asid, appID, vpn
	wk.origin, wk.tr, wk.serial = origin, tr, w.Stats.Started
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
	w.start(now, tr.ASID, tr.AppID, tr.VPN, OriginTrans, tr)
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
			wk.tr, wk.addrs = nil, nil
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
	r.AppID, r.ASID = wk.appID, wk.asid
	r.Kind, r.Class, r.WalkLevel = memreq.Read, memreq.Translation, uint8(lvl)
	r.Addr, r.Issue = wk.addrs[lvl-1], now
	r.Ret, r.Tag = w, wk.serial
	if w.backend.Submit(now, r) {
		wk.waiting = true
		return
	}
	// On refusal the walk retries next tick (with a fresh request; this one
	// goes straight back to the pool).
	r.Ret = nil
	r.Complete(now, memreq.ServedNone)
}

// walkBySerial finds the active walk numbered serial (nil if none). Only
// active walks have reads outstanding, and there are at most max of them.
func (w *Walker) walkBySerial(serial uint64) *walk {
	for _, wk := range w.active {
		if wk.serial == serial {
			return wk
		}
	}
	return nil
}

// RequestDone implements memreq.Sink: a per-level read returned; its Tag is
// the serial of the walk it advances.
func (w *Walker) RequestDone(now int64, r *memreq.Request) {
	wk := w.walkBySerial(r.Tag)
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
	// The walk object is recycled at the next Tick's compaction, so what may
	// be delivered later (a fault-held result) is copied out of it.
	h := HeldWalk{Start: wk.start, Origin: wk.origin, AppID: wk.appID, ASID: wk.asid, VPN: wk.vpn, Frame: frame, Tr: wk.tr}
	// Demand paging (§5.5): the walk found the PTE, but a non-resident page
	// must be faulted in before the translation is usable.
	if w.faults != nil && !w.faults.Touch(now, wk.asid, wk.vpn, h) {
		return
	}
	w.finishWalk(now, h)
}

// FaultDone implements FaultSink: the page a finished walk was held for is
// resident.
func (w *Walker) FaultDone(now int64, h HeldWalk) { w.finishWalk(now, h) }

// finishWalk records completion stats and delivers the frame where the walk's
// origin says (tr.Complete recycles the TransReq into its pool).
func (w *Walker) finishWalk(now int64, h HeldWalk) {
	w.Stats.Completed++
	w.Stats.LatSum += uint64(now - h.Start)
	if w.latHist != nil {
		w.latHist.Observe(float64(now - h.Start))
	}
	if h.Origin == OriginTrans {
		h.Tr.Complete(now, h.Frame)
		return
	}
	w.sink.WalkDone(now, h.ASID, h.AppID, h.VPN, h.Frame, h.Origin)
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
