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
//
// Walks and faults are values: the walker holds its Walks, and the fault
// unit its PendingFaults, in slices and engine Queues, and a checkpoint
// writes them as they are. A walk names the translation it completes by its
// own Core and VPN, a fault-held walk by its Core and the fault's page.
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

// Walk is one walk, a value the walker holds in admission order and a
// checkpoint writes as it is.
type Walk struct {
	ASID  uint8
	AppID int
	VPN   uint64
	// Origin is the only record of where the walk's result goes: to the
	// walker's WalkSink (shared-TLB fills, prefetches), or — OriginTrans, an
	// L1 miss routed straight to the walker under the PWCache design — to
	// the L1 TLB of core Core, whose miss on VPN the walk translates for.
	Origin WalkOrigin
	Core   int32
	// Serial numbers the walk in start order (Stats.Started before it
	// started); its per-level memory reads carry it as their Tag and
	// RequestDone finds the walk by it.
	Serial   uint64
	Level    int // next 1-based level to issue
	Waiting  bool
	Finished bool
	Start    int64

	// addrs holds the walk's page-table addresses, root first, in its first
	// levels entries: a pure function of the page table, which no image
	// carries and a restore recomputes.
	addrs  [memreq.MaxWalkLevel]uint64
	levels int
}

// held is what finishing w needs beyond its page.
func (w *Walk) held() HeldWalk {
	return HeldWalk{Start: w.Start, Origin: w.Origin, AppID: w.AppID, Core: w.Core}
}

// WalkOrigin identifies where a walk's result goes.
type WalkOrigin uint8

const (
	// OriginL2Miss: a shared-TLB demand miss; WalkDone fills its tracker.
	OriginL2Miss WalkOrigin = iota + 1
	// OriginPrefetch: a prediction; WalkDone installs the translation.
	OriginPrefetch
	// OriginTrans: the walk carries a translation and completes it
	// (PWCache design).
	OriginTrans
)

// WalkSink receives the result of every walk started through StartWalk, with
// the origin it was started with (the shared L2 TLB). Awaits reports whether
// a miss tracker waits for the demand walk of (asid, vpn); a restore checks
// every OriginL2Miss walk with it.
type WalkSink interface {
	WalkDone(now int64, asid uint8, appID int, vpn uint64, origin WalkOrigin)
	Awaits(asid uint8, vpn uint64) bool
}

// sampleInterval is how often, in cycles, the walker samples its concurrency
// (Stats.Samples).
const sampleInterval = 128

// Walker is the shared page table walker.
type Walker struct {
	max     int
	backend cache.Backend
	sink    WalkSink
	spaces  map[uint8]*pagetable.Space

	// active holds the admitted walks in admission order, pending the
	// walks waiting for a slot.
	active  []Walk
	pending engine.Queue[Walk]
	// pool recycles the walker's per-level memory read requests: the
	// simulator's one pool. route is the walker's entry in its sink table,
	// which the reads return on. trans is where OriginTrans walks'
	// translations return: the L1 TLBs.
	pool  *memreq.Pool
	route memreq.Route
	trans memreq.TransSink

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
// through backend with requests from pool and returning the translations
// routed straight to it to trans.
func New(maxConcurrent int, backend cache.Backend, pool *memreq.Pool, trans memreq.TransSink) *Walker {
	return Renew(nil, maxConcurrent, backend, pool, trans)
}

// Renew is New built in place over a donor: w is retired and comes back as
// New would return it, over the donor's buffers where they fit
// (docs/MODEL.md §11). A nil donor allocates everything.
func Renew(w *Walker, maxConcurrent int, backend cache.Backend, pool *memreq.Pool, trans memreq.TransSink) *Walker {
	if w == nil {
		w = new(Walker)
	}
	w.Retire()
	w.max, w.backend, w.pool, w.trans = maxConcurrent, backend, pool, trans
	w.route = pool.Register(w)
	w.spaces = slab.Map(w.spaces)
	return w
}

// Retire empties w in place: what is left is the zero Walker but for the
// capacity of its space map and walk lists, with nothing in them —
// no address space, no fault unit, no pool, no hook, no neighbour
// (cache.Cache.Retire has the why).
func (w *Walker) Retire() {
	d := *w
	clear(d.spaces)
	*w = Walker{
		spaces:  d.spaces,
		active:  slab.Grown(d.active),
		pending: d.pending.Renewed(0, 0),
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
	w.start(now, Walk{ASID: asid, AppID: appID, VPN: vpn, Origin: origin})
}

// start numbers wk and queues it, or admits it while a slot is free.
func (w *Walker) start(now int64, wk Walk) {
	sp, ok := w.spaces[wk.ASID]
	if !ok {
		panic("ptw: walk for unregistered ASID")
	}
	wk.Serial, wk.Level, wk.Start = w.Stats.Started, 1, now
	wk.levels = len(sp.WalkAddrsInto(wk.VPN, wk.addrs[:0]))
	w.Stats.Started++
	if len(w.active) < w.max {
		w.active = append(w.active, wk)
	} else {
		w.pending.Push(now, wk)
	}
	if total := len(w.active) + w.pending.Len(); total > w.Stats.ActivePeak {
		w.Stats.ActivePeak = total
	}
}

// SubmitTrans implements tlb.TransBackend so the PWCache design can route L1
// TLB misses straight to the walker. The pending queue is FIFO and
// unbounded: under heavy miss traffic it grows long and walks become very
// slow, which is precisely the PWCache design's weakness relative to a
// shared L2 TLB (Figure 3). FIFO order keeps walker admission fair across
// applications regardless of core tick order.
func (w *Walker) SubmitTrans(now int64, tr memreq.Trans) bool {
	w.start(now, Walk{ASID: tr.ASID, AppID: tr.AppID, VPN: tr.VPN, Origin: OriginTrans, Core: tr.Core})
	return true
}

// Tick issues the next dependent access for every walk that is not blocked
// on memory, admits queued walks into freed slots, and samples concurrency.
func (w *Walker) Tick(now int64) {
	// Drop finished walks, keeping the rest in order, and admit pending ones.
	n := 0
	for i := range w.active {
		if !w.active[i].Finished {
			if i != n {
				w.active[n] = w.active[i]
			}
			n++
		}
	}
	w.active = w.active[:n]
	for len(w.active) < w.max {
		wk, ok := w.pending.Pop(now)
		if !ok {
			break
		}
		w.active = append(w.active, wk)
	}

	for i := range w.active {
		if wk := &w.active[i]; !wk.Waiting && !wk.Finished {
			w.issue(now, wk)
		}
	}

	if now%sampleInterval == 0 {
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
	for i := range w.active {
		if wk := &w.active[i]; wk.Finished || !wk.Waiting {
			return now
		}
	}
	if len(w.active) < w.max {
		return w.pending.NextReady(now)
	}
	return engine.NoEvent
}

// SkipTo implements engine.Skipper: replay the concurrency sampling Tick
// performs at every multiple of sampleInterval inside [from, to). len(active) is
// frozen across a skipped span (walks only change state via ticks and
// callbacks, none of which run while everything is quiescent), so each missed
// sample point contributes the same reading.
func (w *Walker) SkipTo(from, to int64) {
	n := multiplesIn(from, to, sampleInterval)
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

func (w *Walker) issue(now int64, wk *Walk) {
	if w.wedge != nil && w.wedge(now) {
		// Mark the walk as waiting on a response that will never arrive.
		wk.Waiting = true
		return
	}
	lvl := wk.Level
	r := w.pool.Get()
	r.AppID = wk.AppID
	r.Kind, r.Class, r.WalkLevel = memreq.Read, memreq.Translation, uint8(lvl)
	r.Addr, r.Issue = wk.addrs[lvl-1], now
	r.Ret, r.Tag = w.route, wk.Serial
	if w.backend.Submit(now, r) {
		wk.Waiting = true
		return
	}
	// On refusal the walk retries next tick (with a fresh request; this one
	// goes straight back to the pool).
	r.Ret = 0
	w.pool.Complete(r, now, memreq.ServedNone)
}

// walkBySerial finds the active walk numbered serial (nil if none). Only
// active walks have reads outstanding, and there are at most max of them.
func (w *Walker) walkBySerial(serial uint64) *Walk {
	for i := range w.active {
		if wk := &w.active[i]; wk.Serial == serial {
			return wk
		}
	}
	return nil
}

// RequestDone implements memreq.Sink: a per-level read returned; its Tag is
// the serial of the walk it advances.
func (w *Walker) RequestDone(now int64, r *memreq.Request) {
	wk := w.walkBySerial(r.Tag)
	wk.Waiting = false
	wk.Level++
	if wk.Level <= wk.levels {
		return // next dependent access issues on the following tick
	}
	// The next Tick drops the finished walk, so what may be delivered later
	// (a fault-held result) is copied out of it.
	wk.Finished = true
	key, h := memreq.PageKey{ASID: wk.ASID, VPN: wk.VPN}, wk.held()
	// Demand paging (§5.5): the walk found the PTE, but a non-resident page
	// must be faulted in before the translation is usable.
	if w.faults != nil && !w.faults.Touch(now, key, h) {
		return
	}
	w.finishWalk(now, key, h)
}

// FaultDone implements FaultSink: page key, which a finished walk was held
// for, is resident.
func (w *Walker) FaultDone(now int64, key memreq.PageKey, h HeldWalk) { w.finishWalk(now, key, h) }

// finishWalk records completion stats and delivers the result of the walk of
// page key where its origin says.
func (w *Walker) finishWalk(now int64, key memreq.PageKey, h HeldWalk) {
	w.Stats.Completed++
	w.Stats.LatSum += uint64(now - h.Start)
	if w.latHist != nil {
		w.latHist.Observe(float64(now - h.Start))
	}
	if h.Origin == OriginTrans {
		w.trans.TransDone(now, memreq.TransKey{Core: h.Core, VPN: key.VPN})
		return
	}
	w.sink.WalkDone(now, key.ASID, h.AppID, key.VPN, h.Origin)
}

// ActiveWalks returns the number of in-flight walks.
func (w *Walker) ActiveWalks() int { return len(w.active) }

// QueuedWalks returns the number of walks waiting for a slot.
func (w *Walker) QueuedWalks() int { return w.pending.Len() }
