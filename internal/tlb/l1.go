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
// warp and page slot that asked for it. A restore hands every waiter to
// Await, which counts it against its warp and reports whether that warp and
// slot can be waiting for the translation of page vpn.
type Waker interface {
	Translated(now int64, warpID, slot int)
	Await(warpID, slot int, vpn uint64) bool
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
	pending engine.Queue[*memreq.TransReq]

	missFree slab.List[l1miss]
	// pool recycles translation requests: the simulator's one pool, which
	// returns this core's translations here.
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
		pending:  d.pending.Renewed(0, 0),
		missFree: d.missFree,
		backend:  backend,
		pool:     pool,
	}
	pool.Register(coreID, t)
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

// Lookup looks vpn up for page slot of warpID's memory instruction and
// reports whether it hit (the core charges the 1-cycle access latency). On a
// miss the warp and slot are recorded against the miss and the waker's
// Translated runs when the translation returns. hasToken is the warp's
// TLB-Fill Token state, propagated so the shared L2 TLB can apply MASK's
// fill policy.
func (t *L1TLB) Lookup(now int64, vpn uint64, warpID, slot int, hasToken bool) (hit bool) {
	t.Stats.Accesses++
	if t.tab.probe(memreq.PageKey{ASID: t.asid, VPN: vpn}) {
		t.Stats.Hits++
		return true
	}
	t.Stats.Misses++
	w := waiter{int32(warpID), int32(slot)}
	if m, ok := t.mshrs[vpn]; ok {
		m.waiting = append(m.waiting, w)
		m.tr.StalledWarps++
		return false
	}
	tr := t.pool.Get()
	tr.AppID, tr.ASID, tr.CoreID = t.appID, t.asid, t.coreID
	tr.VPN, tr.HasToken, tr.StalledWarps = vpn, hasToken, 1
	m := t.getMiss()
	m.vpn, m.tr = vpn, tr
	m.waiting = append(m.waiting, w)
	t.mshrs[vpn] = m
	if !t.backend.SubmitTrans(now, tr) {
		t.pending.Push(now, tr)
	}
	return false
}

// TransDone implements memreq.TransSink: the translation tr asked for has
// returned. It installs the translation, wakes every blocked warp, recycles
// the miss tracker, and records the stalled-warp sample for the Figure 6
// metric.
func (t *L1TLB) TransDone(now int64, tr *memreq.TransReq) {
	vpn := tr.VPN
	m, ok := t.mshrs[vpn]
	if !ok || m.tr != tr {
		return // no tracker waits on this request
	}
	delete(t.mshrs, vpn)
	t.tab.fill(memreq.PageKey{ASID: t.asid, VPN: vpn})
	t.Stats.StalledWarpSum += uint64(len(m.waiting))
	t.Stats.StalledWarpCount++
	for _, w := range m.waiting {
		t.waker.Translated(now, int(w.warp), int(w.slot))
	}
	m.tr = nil
	m.waiting = m.waiting[:0]
	t.missFree.Put(m)
}

// Tick resubmits the backend submissions that were refused, in order, keeping
// what the backend still refuses.
func (t *L1TLB) Tick(now int64) {
	if t.pending.Len() > 0 {
		pass := t.pending.Offers()
		for _, tr := range pass.Items {
			if !t.backend.SubmitTrans(now, tr) {
				pass.Keep(tr)
			}
		}
		pass.Done()
	}
}

// NextEvent implements engine.EventSource: the TLB acts on its own only to
// retry refused backend submissions; everything else (lookups, fills) happens
// inside callers' calls and returning translations.
func (t *L1TLB) NextEvent(now int64) int64 {
	if t.pending.Len() > 0 {
		return now
	}
	return engine.NoEvent
}

// Flush drops every cached translation (e.g. on an address-space switch).
// Outstanding misses are untouched: each still returns, installs its page
// and wakes its warps.
func (t *L1TLB) Flush() { t.tab.reset() }

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
	slices.SortFunc(es, func(x, y Entry) int { return cmp.Compare(x.Key.VPN, y.Key.VPN) })
	for i := 0; i < len(es); i += stride {
		t.tab.remove(es[i].Key)
	}
}
