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
	"masksim/internal/mshr"
	"masksim/internal/slab"
)

// TransBackend receives translation requests that miss in an L1 TLB — the
// shared L2 TLB under the SharedTLB/MASK designs, or the page table walker
// directly under the PWCache design.
type TransBackend interface {
	SubmitTrans(now int64, tr memreq.Trans) bool
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

// vpnKeys are the keys of an L1 TLB's miss table.
var vpnKeys = mshr.Numbers("vpn")

// L1TLB is a private, per-core, fully-associative TLB (Table 1: 64 entries,
// LRU, 1-cycle). The one-cycle latency is charged by the core model.
type L1TLB struct {
	coreID  int
	appID   int
	asid    uint8
	tab     *assocLRU
	backend TransBackend
	waker   Waker

	// mshrs holds each outstanding translation by VPN, with its opening
	// lookup's TLB-Fill Token state and its blocked warps in arrival order.
	mshrs mshr.Table[uint64, bool, WaiterState]
	// pending holds the translations the backend refused, in retry order.
	pending engine.Queue[memreq.Trans]

	Stats L1Stats
}

// L1TLBs are the simulator's L1 TLBs, indexed by core: where every
// translation returns.
type L1TLBs []*L1TLB

// TransDone implements memreq.TransSink: the translation of k returns to its
// core's L1 TLB.
func (ts *L1TLBs) TransDone(now int64, k memreq.TransKey) { (*ts)[k.Core].TransDone(now, k.VPN) }

// NewL1 builds an L1 TLB of the given size for one core.
func NewL1(coreID, appID int, asid uint8, size int, backend TransBackend) *L1TLB {
	return RenewL1(nil, coreID, appID, asid, size, backend)
}

// RenewL1 is NewL1 built in place over a donor: t comes back as NewL1 would
// return it, keeping only the capacity of the donor's table, miss table and
// pending list (docs/MODEL.md §11). A nil donor allocates everything.
func RenewL1(t *L1TLB, coreID, appID int, asid uint8, size int, backend TransBackend) *L1TLB {
	t, d := slab.Lift(t)
	*t = L1TLB{
		coreID:  coreID,
		appID:   appID,
		asid:    asid,
		tab:     renewAssocLRU(d.tab, size),
		mshrs:   d.mshrs.Renewed(0, vpnKeys),
		pending: d.pending.Renewed(0, 0),
		backend: backend,
	}
	return t
}

// SetWaker names the core whose warps wait on this TLB's misses. Must be
// called before the first Lookup that misses.
func (t *L1TLB) SetWaker(w Waker) { t.waker = w }

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
	w := WaiterState{int32(warpID), int32(slot)}
	if e, ok := t.mshrs.Find(vpn); ok {
		t.mshrs.Add(e, w)
		return false
	}
	t.mshrs.Add(t.mshrs.Open(vpn, hasToken), w)
	tr := t.trans(vpn, hasToken)
	if !t.backend.SubmitTrans(now, tr) {
		t.pending.Push(now, tr)
	}
	return false
}

// trans returns the translation of this TLB's miss on vpn.
func (t *L1TLB) trans(vpn uint64, hasToken bool) memreq.Trans {
	return memreq.Trans{VPN: vpn, AppID: t.appID, Core: int32(t.coreID), ASID: t.asid, HasToken: hasToken}
}

// TransDone closes the miss on vpn: its translation has returned. It
// installs the translation, closes the miss, wakes every blocked warp, and
// records the stalled-warp sample for the Figure 6 metric. A translation with
// no miss open for it was completed twice, and panics.
func (t *L1TLB) TransDone(now int64, vpn uint64) {
	e, ok := t.mshrs.Find(vpn)
	if !ok {
		panic("tlb: a translation returned to an L1 TLB with no miss open for it (completed twice)")
	}
	t.Stats.StalledWarpSum += uint64(t.mshrs.Count(e))
	t.Stats.StalledWarpCount++
	_, ws := t.mshrs.Close(e)
	t.tab.fill(memreq.PageKey{ASID: t.asid, VPN: vpn})
	for w, ok := t.mshrs.Pop(&ws); ok; w, ok = t.mshrs.Pop(&ws) {
		t.waker.Translated(now, int(w.Warp), int(w.Slot))
	}
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
