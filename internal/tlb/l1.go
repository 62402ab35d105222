// Package tlb implements the GPU's translation lookaside buffer hierarchy:
// per-core L1 TLBs, the shared, ASID-tagged L2 TLB, MASK's TLB-Fill Tokens
// with their bypass cache (§5.2), and the miss-status tracking that feeds
// the Address-Space-Aware DRAM scheduler's pressure metrics (§5.4).
package tlb

import (
	"cmp"
	"slices"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/slab"
)

// TransBackend receives translation requests that miss in an L1 TLB — the
// shared L2 TLB under the SharedTLB/MASK designs, or the page table walker
// directly under the PWCache design.
type TransBackend interface {
	SubmitTrans(now int64, tr *memreq.TransReq) bool
}

// L1Stats aggregates per-core L1 TLB counters.
type L1Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// StalledWarpSamples records, for each completed miss, how many warps
	// were blocked waiting on it (the Figure 6 metric).
	StalledWarpSum   uint64
	StalledWarpCount uint64
}

// MissRate returns Misses/Accesses, or 0 with no traffic.
func (s L1Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// AvgStalledWarps returns the mean number of warps blocked per TLB miss.
func (s L1Stats) AvgStalledWarps() float64 {
	if s.StalledWarpCount == 0 {
		return 0
	}
	return float64(s.StalledWarpSum) / float64(s.StalledWarpCount)
}

// Waker is the core an L1 TLB serves: a missed translation returns to the
// warp and page slot that asked for it. Awaits reports whether that warp and
// slot can be waiting for a translation; a restore checks every waiter with
// it.
type Waker interface {
	Translated(now int64, warpID, slot int, frame uint64)
	Awaits(warpID, slot int) bool
}

// waiter names one blocked requester: a warp and the page slot of its
// current memory instruction.
type waiter struct {
	warp, slot int32
}

// l1miss tracks one outstanding translation. Miss objects are recycled
// through the TLB's free list, so a steady-state miss allocates nothing.
type l1miss struct {
	vpn uint64
	tr  *memreq.TransReq
	// waiting holds every warp blocked on this translation, in arrival
	// order; it starts out on waitBuf.
	waiting []waiter
	waitBuf [8]waiter
}

// reset returns m to the free list's state whatever state it was in: empty,
// still holding the waiting buffer it grew (slab.List.Rewind).
func (m *l1miss) reset() {
	*m = l1miss{waiting: slab.Slice(m.waiting, 0)}
	if m.waiting == nil {
		m.waiting = m.waitBuf[:0]
	}
}

// L1TLB is a private, per-core, fully-associative TLB (Table 1: 64 entries,
// LRU, 1-cycle). The one-cycle latency is charged by the core model.
type L1TLB struct {
	coreID  int
	appID   int
	asid    uint8
	tab     *assocLRU
	backend TransBackend
	waker   Waker

	mshrs   map[uint64]*l1miss
	pending []*memreq.TransReq

	missFree slab.List[l1miss]
	// pool recycles translation requests: the simulator's one pool.
	pool *memreq.TransPool

	Stats L1Stats
}

// NewL1 builds an L1 TLB of the given size for one core, whose translation
// requests come from pool.
func NewL1(coreID, appID int, asid uint8, size int, backend TransBackend, pool *memreq.TransPool) *L1TLB {
	return RenewL1(nil, coreID, appID, asid, size, backend, pool)
}

// RenewL1 is NewL1 built in place over a donor: t comes back as NewL1 would
// return it, keeping only the capacity of the donor's table, miss map and
// trackers and pending list (docs/MODEL.md §11). A nil donor allocates
// everything.
func RenewL1(t *L1TLB, coreID, appID int, asid uint8, size int, backend TransBackend, pool *memreq.TransPool) *L1TLB {
	t, d := slab.Lift(t)
	d.missFree.Rewind((*l1miss).reset)
	*t = L1TLB{
		coreID:   coreID,
		appID:    appID,
		asid:     asid,
		tab:      renewAssocLRU(d.tab, size),
		mshrs:    slab.Map(d.mshrs),
		pending:  slab.Grown(d.pending),
		missFree: d.missFree,
		backend:  backend,
		pool:     pool,
	}
	return t
}

// SetWaker names the core whose warps wait on this TLB's misses. Must be
// called before the first Lookup that misses.
func (t *L1TLB) SetWaker(w Waker) { t.waker = w }

// getMiss takes a miss tracker off the free list.
func (t *L1TLB) getMiss() *l1miss {
	m, fresh := t.missFree.Get()
	if fresh {
		m.waiting = m.waitBuf[:0]
	}
	return m
}

// Lookup translates vpn for page slot of warpID's memory instruction. A hit
// returns the frame (the core charges the 1-cycle access latency). On a miss
// the warp and slot are recorded against the miss and the waker's Translated
// receives the frame when the translation returns. hasToken is the warp's
// TLB-Fill Token state, propagated so the shared L2 TLB can apply MASK's
// fill policy.
func (t *L1TLB) Lookup(now int64, vpn uint64, warpID, slot int, hasToken bool) (frame uint64, hit bool) {
	t.Stats.Accesses++
	if frame, ok := t.tab.probe(l2key{t.asid, vpn}); ok {
		t.Stats.Hits++
		return frame, true
	}
	t.Stats.Misses++
	w := waiter{int32(warpID), int32(slot)}
	if m, ok := t.mshrs[vpn]; ok {
		m.waiting = append(m.waiting, w)
		m.tr.StalledWarps++
		return 0, false
	}
	tr := t.pool.Get()
	tr.AppID, tr.ASID, tr.CoreID = t.appID, t.asid, t.coreID
	tr.VPN, tr.HasToken, tr.StalledWarps = vpn, hasToken, 1
	tr.Ret = t
	m := t.getMiss()
	m.vpn, m.tr = vpn, tr
	m.waiting = append(m.waiting, w)
	t.mshrs[vpn] = m
	if !t.backend.SubmitTrans(now, tr) {
		t.pending = append(t.pending, tr)
	}
	return 0, false
}

// TransDone implements memreq.TransSink: the translation tr asked for has
// returned. It installs the translation, wakes every blocked warp, recycles
// the miss tracker, and records the stalled-warp sample for the Figure 6
// metric.
func (t *L1TLB) TransDone(now int64, tr *memreq.TransReq, frame uint64) {
	vpn := tr.VPN
	m, ok := t.mshrs[vpn]
	if !ok || m.tr != tr {
		return // no tracker waits on this request
	}
	delete(t.mshrs, vpn)
	t.tab.fill(l2key{t.asid, vpn}, frame)
	t.Stats.StalledWarpSum += uint64(len(m.waiting))
	t.Stats.StalledWarpCount++
	for _, w := range m.waiting {
		t.waker.Translated(now, int(w.warp), int(w.slot), frame)
	}
	m.tr = nil
	m.waiting = m.waiting[:0]
	t.missFree.Put(m)
}

// Tick resubmits the backend submissions that were refused, in order, keeping
// what the backend still refuses.
func (t *L1TLB) Tick(now int64) {
	if len(t.pending) == 0 {
		return
	}
	nkeep := 0
	for _, tr := range t.pending {
		if !t.backend.SubmitTrans(now, tr) {
			t.pending[nkeep] = tr
			nkeep++
		}
	}
	t.pending = t.pending[:nkeep]
}

// NextEvent implements engine.EventSource: the TLB acts on its own only to
// retry refused backend submissions; everything else (lookups, fills) happens
// inside callers' calls and returning translations.
func (t *L1TLB) NextEvent(now int64) int64 {
	if len(t.pending) > 0 {
		return now
	}
	return engine.NoEvent
}

// Flush empties the TLB (e.g. on an address-space switch). In-flight misses
// are dropped; their warps are woken with the returned frame when the walk
// completes via the stale MSHR map, so Flush also abandons the MSHRs after
// waking waiters with the eventual translation. To keep the model simple and
// live, Flush only clears cached entries; outstanding walks still complete
// and wake their warps.
func (t *L1TLB) Flush() { t.tab.reset() }

// Entries returns the number of valid entries (test helper).
func (t *L1TLB) Entries() int { return t.tab.n }

// OutstandingMisses returns the number of active miss entries.
func (t *L1TLB) OutstandingMisses() int { return len(t.mshrs) }

// Contains reports whether vpn is cached (test helper).
func (t *L1TLB) Contains(vpn uint64) bool { return t.tab.contains(l2key{t.asid, vpn}) }

// FlushFraction drops roughly the given fraction of cached entries — every
// stride-th one in ascending VPN order, so the victims do not depend on
// recency — modelling partial eviction across a context switch.
func (t *L1TLB) FlushFraction(fraction float64) {
	if fraction <= 0 {
		return
	}
	if fraction >= 1 {
		t.Flush()
		return
	}
	stride := int(1 / fraction)
	if stride < 1 {
		stride = 1
	}
	es := t.tab.entries()
	slices.SortFunc(es, func(x, y assocEntry) int { return cmp.Compare(x.key.vpn, y.key.vpn) })
	for i := 0; i < len(es); i += stride {
		t.tab.remove(es[i].key)
	}
}
