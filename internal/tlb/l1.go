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

// l1miss tracks one outstanding translation. Miss objects are recycled
// through the TLB's free list; done is bound once, at first handout, so a
// steady-state miss allocates neither the tracker nor its fill closure.
type l1miss struct {
	vpn uint64
	tr  *memreq.TransReq
	// waiting holds the completion callbacks of every warp blocked on this
	// translation; it starts out on waitBuf.
	waiting []func(now int64, frame uint64)
	waitBuf [8]func(now int64, frame uint64)

	done func(now int64, frame uint64)
}

// L1TLB is a private, per-core, fully-associative TLB (Table 1: 64 entries,
// LRU, 1-cycle). The one-cycle latency is charged by the core model.
type L1TLB struct {
	coreID  int
	appID   int
	asid    uint8
	tab     *assocLRU
	backend TransBackend

	mshrs   map[uint64]*l1miss
	pending []*memreq.TransReq

	missFree slab.List[l1miss]
	// pool recycles translation requests; NewL1 creates a private pool, the
	// simulator injects its shared one.
	pool *memreq.TransPool

	Stats L1Stats
}

// NewL1 builds an L1 TLB of the given size for one core.
func NewL1(coreID, appID int, asid uint8, size int, backend TransBackend) *L1TLB {
	return &L1TLB{
		coreID:  coreID,
		appID:   appID,
		asid:    asid,
		tab:     newAssocLRU(size),
		mshrs:   make(map[uint64]*l1miss),
		backend: backend,
		pool:    &memreq.TransPool{},
	}
}

// SetTransPool replaces the TLB's private translation-request pool with a
// shared per-simulator one. Must be called before simulation starts.
func (t *L1TLB) SetTransPool(p *memreq.TransPool) { t.pool = p }

// getMiss takes a miss tracker off the free list, binding the fill handler
// of one handed out for the first time.
func (t *L1TLB) getMiss() *l1miss {
	m, fresh := t.missFree.Get()
	if fresh {
		m.done = func(dnow int64, frame uint64) { t.fill(dnow, m, frame) }
		m.waiting = m.waitBuf[:0]
	}
	return m
}

// Lookup translates vpn for warpID. On a hit, done is invoked immediately
// (the core charges the 1-cycle access latency). On a miss the warp is
// recorded against the miss and done fires when the translation returns.
// hasToken is the warp's TLB-Fill Token state, propagated so the shared L2
// TLB can apply MASK's fill policy.
func (t *L1TLB) Lookup(now int64, vpn uint64, warpID int, hasToken bool, done func(now int64, frame uint64)) {
	t.Stats.Accesses++
	if frame, ok := t.tab.probe(l2key{t.asid, vpn}); ok {
		t.Stats.Hits++
		done(now, frame)
		return
	}
	t.Stats.Misses++
	if m, ok := t.mshrs[vpn]; ok {
		m.waiting = append(m.waiting, done)
		m.tr.StalledWarps++
		return
	}
	tr := t.pool.Get()
	tr.AppID, tr.ASID, tr.CoreID, tr.WarpID = t.appID, t.asid, t.coreID, warpID
	tr.VPN, tr.HasToken, tr.Issue, tr.StalledWarps = vpn, hasToken, now, 1
	m := t.getMiss()
	m.vpn, m.tr = vpn, tr
	m.waiting = append(m.waiting, done)
	t.mshrs[vpn] = m
	tr.Done = m.done
	if !t.backend.SubmitTrans(now, tr) {
		t.pending = append(t.pending, tr)
	}
}

// fill installs the translation, wakes every blocked warp, recycles the miss
// tracker, and records the stalled-warp sample for the Figure 6 metric.
func (t *L1TLB) fill(now int64, m *l1miss, frame uint64) {
	if cur, ok := t.mshrs[m.vpn]; !ok || cur != m {
		return // flushed while in flight; the stale tracker is abandoned
	}
	vpn := m.vpn
	delete(t.mshrs, vpn)
	t.tab.fill(l2key{t.asid, vpn}, frame)
	t.Stats.StalledWarpSum += uint64(len(m.waiting))
	t.Stats.StalledWarpCount++
	for _, cb := range m.waiting {
		cb(now, frame)
	}
	m.tr = nil
	clear(m.waiting)
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
// inside callers' calls and completion callbacks.
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
