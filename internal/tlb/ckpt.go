package tlb

import (
	"cmp"
	"errors"
	"fmt"

	"masksim/internal/engine"
	"masksim/internal/memreq"
)

// --- L1 TLB -----------------------------------------------------------------

// EntryState is one cached translation of an L1 TLB or the bypass cache.
type EntryState struct {
	ASID  uint8
	VPN   uint64
	Frame uint64
	Stamp int64
}

// WaiterState names one warp blocked on an L1 miss and the page slot of its
// memory instruction (gpu.WarpState.Pages) the translation is for.
type WaiterState struct {
	Warp, Slot int32
}

// L1MissState is one outstanding L1 miss with its blocked warps in arrival
// order. The miss tracker is the one holder that writes its translation
// request: the fields below are the ones the TLB does not imply (core, app,
// ASID and VPN are the tracker's own, the stalled-warp count is the number of
// waiters); everything else that holds the request names it by
// memreq.TransKey.
type L1MissState struct {
	VPN      uint64
	HasToken bool
	Waiting  []WaiterState
}

// L1State is the L1 TLB's checkpoint image. Entries are written from LRU to
// MRU; restore accepts any order and rebuilds recency from the stamps.
// Pending lists the VPNs of the misses the backend refused, in retry order.
type L1State struct {
	Entries []EntryState
	Stamp   int64
	Mshrs   []L1MissState
	Pending []uint64
	Stats   L1Stats
}

// SnapshotState captures the L1 TLB's checkpoint image.
func (t *L1TLB) SnapshotState() L1State {
	st := L1State{
		Entries: t.tab.snapshot(),
		Stamp:   t.tab.stamp,
		Stats:   t.Stats,
	}
	for _, vpn := range memreq.SortedKeys(t.mshrs, cmp.Compare[uint64]) {
		m := t.mshrs[vpn]
		ms := L1MissState{VPN: vpn, HasToken: m.tr.HasToken}
		for _, w := range m.waiting {
			ms.Waiting = append(ms.Waiting, WaiterState{Warp: w.warp, Slot: w.slot})
		}
		st.Mshrs = append(st.Mshrs, ms)
	}
	for _, tr := range t.pending {
		st.Pending = append(st.Pending, tr.VPN)
	}
	return st
}

func compareKeys(a, b l2key) int {
	if c := cmp.Compare(a.asid, b.asid); c != 0 {
		return c
	}
	return cmp.Compare(a.vpn, b.vpn)
}

// RestoreState restores an image captured by SnapshotState onto a TLB built
// for the same core. The core restores first: every waiter must name a warp
// it has blocked on a translation of that page slot. A pending translation is
// one of the holders wi.Trans accounts for.
func (t *L1TLB) RestoreState(wi *memreq.Wiring, st L1State) error {
	t.Stats = st.Stats
	if err := t.tab.restore("L1", st.Stamp, st.Entries); err != nil {
		return err
	}
	t.mshrs = make(map[uint64]*l1miss, len(st.Mshrs))
	for _, ms := range st.Mshrs {
		if _, dup := t.mshrs[ms.VPN]; dup {
			return fmt.Errorf("tlb: checkpoint has two L1 misses of core %d for vpn %#x", t.coreID, ms.VPN)
		}
		tr := t.pool.Get()
		tr.AppID, tr.ASID, tr.CoreID = t.appID, t.asid, t.coreID
		tr.VPN, tr.HasToken, tr.StalledWarps = ms.VPN, ms.HasToken, len(ms.Waiting)
		tr.Ret = t
		m := t.getMiss()
		m.vpn, m.tr = ms.VPN, tr
		for _, w := range ms.Waiting {
			if t.waker == nil || !t.waker.Awaits(int(w.Warp), int(w.Slot)) {
				return fmt.Errorf("tlb: checkpoint L1 miss of core %d for vpn %#x waits for warp %d slot %d, which awaits no translation there", t.coreID, ms.VPN, w.Warp, w.Slot)
			}
			m.waiting = append(m.waiting, waiter{w.Warp, w.Slot})
		}
		t.mshrs[ms.VPN] = m
	}
	t.pending = t.pending[:0]
	for _, vpn := range st.Pending {
		tr, err := wi.Trans(memreq.TransKey{Core: int32(t.coreID), VPN: vpn})
		if err != nil {
			return err
		}
		t.pending = append(t.pending, tr)
	}
	return nil
}

// ErrHeldTwice rejects an image that names one translation from two holders.
// A run never holds one TransReq in two places — it moves from the L1 TLB's
// retry list to the shared TLB's pipe, stalled queue or a miss tracker, or to
// a walk and a fault — and a resumed run would complete it twice.
var ErrHeldTwice = errors.New("tlb: checkpoint names one translation from two holders")

// Trackers resolves the keys a checkpoint names translation requests by
// against l1s, the restored L1 TLBs indexed by core, handing out each key
// once.
func Trackers(l1s []*L1TLB) func(memreq.TransKey) (*memreq.TransReq, error) {
	held := make(map[memreq.TransKey]bool)
	return func(k memreq.TransKey) (*memreq.TransReq, error) {
		if held[k] {
			return nil, fmt.Errorf("%w: core %d, vpn %#x", ErrHeldTwice, k.Core, k.VPN)
		}
		held[k] = true
		if k.Core < 0 || int(k.Core) >= len(l1s) {
			return nil, fmt.Errorf("tlb: checkpoint names the L1 TLB of core %d, there are %d", k.Core, len(l1s))
		}
		if m, ok := l1s[k.Core].mshrs[k.VPN]; ok {
			return m.tr, nil
		}
		return nil, fmt.Errorf("tlb: checkpoint names the translation of vpn %#x by core %d, which no L1 TLB miss tracks", k.VPN, k.Core)
	}
}

// --- token policy -----------------------------------------------------------

// TokenState is the TLB-Fill Token policy's checkpoint image.
type TokenState struct {
	TokensPerCore []int
	PrevMissRate  []float64
	HavePrev      []bool
	FirstEpoch    bool
	Dir           []int
}

// State captures the policy's adaptive state.
func (p *TokenPolicy) State() TokenState {
	return TokenState{
		TokensPerCore: append([]int(nil), p.tokensPerCore...),
		PrevMissRate:  append([]float64(nil), p.prevMissRate...),
		HavePrev:      append([]bool(nil), p.havePrev...),
		FirstEpoch:    p.firstEpoch,
		Dir:           append([]int(nil), p.dir...),
	}
}

// SetState restores state captured from a policy built with the same app
// count and warps per core.
func (p *TokenPolicy) SetState(st TokenState) {
	copy(p.tokensPerCore, st.TokensPerCore)
	copy(p.prevMissRate, st.PrevMissRate)
	copy(p.havePrev, st.HavePrev)
	p.firstEpoch = st.FirstEpoch
	copy(p.dir, st.Dir)
}

// --- shared L2 TLB ----------------------------------------------------------

// AppTLBStatsState mirrors AppTLBStats including the unexported epoch
// counters.
type AppTLBStatsState struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64
	EpochAccesses uint64
	EpochMisses   uint64
}

// L2EntryState is one line of the set-associative array, index-aligned with
// the lines slice.
type L2EntryState struct {
	ASID       uint8
	VPN        uint64
	Frame      uint64
	Valid      bool
	Stamp      int64
	Prefetched bool
}

// BypassState is the TLB bypass cache's checkpoint image, with the same
// entry-order rule as L1State.
type BypassState struct {
	Entries  []EntryState
	Stamp    int64
	Accesses uint64
	Hits     uint64
}

// PfEntryState is one correlation-table transition, stored in FIFO insertion
// order so bounded eviction resumes identically.
type PfEntryState struct {
	ASID uint8
	VPN  uint64
	Next uint64
}

// PrefetcherState is the correlation prefetcher's checkpoint image; Last
// holds each address space's most recent demand VPN.
type PrefetcherState struct {
	Entries []PfEntryState
	Last    []memreq.PageKey
	Stats   PrefetchStats
}

// L2State is the shared TLB's checkpoint image. Mshrs holds each miss
// tracker's merged requesters in arrival order; the first is the lookup that
// missed, whose page and application are the tracker's.
type L2State struct {
	Lines      []L2EntryState
	Stamp      int64
	In         []engine.PipeItemState[memreq.TransKey]
	Mshrs      [][]memreq.TransKey
	Stalled    []memreq.TransKey
	PfInFlight []memreq.PageKey
	Apps       []AppTLBStatsState
	Bypass     *BypassState
	Prefetch   *PrefetcherState
	Tokens     *TokenState
}

// SnapshotState captures the shared TLB's checkpoint image. Translation
// requests are named by key: their L1 TLB miss trackers write them.
func (t *L2TLB) SnapshotState() L2State {
	st := L2State{
		Stamp: t.stamp,
		In:    engine.SnapshotPipe(t.in, (*memreq.TransReq).Key),
	}
	st.Lines = make([]L2EntryState, len(t.lines))
	for i := range t.lines {
		e := &t.lines[i]
		st.Lines[i] = L2EntryState{
			ASID: e.key.asid, VPN: e.key.vpn, Frame: e.frame,
			Valid: e.valid, Stamp: e.stamp, Prefetched: e.prefetched,
		}
	}
	for _, key := range memreq.SortedKeys(t.mshrs, compareKeys) {
		var reqs []memreq.TransKey
		for _, tr := range t.mshrs[key].reqs {
			reqs = append(reqs, tr.Key())
		}
		st.Mshrs = append(st.Mshrs, reqs)
	}
	for _, tr := range t.stalled.live() {
		st.Stalled = append(st.Stalled, tr.Key())
	}
	for _, key := range memreq.SortedKeys(t.pfInFlight, compareKeys) {
		st.PfInFlight = append(st.PfInFlight, memreq.PageKey{ASID: key.asid, VPN: key.vpn})
	}
	st.Apps = make([]AppTLBStatsState, len(t.apps))
	for i, a := range t.apps {
		st.Apps[i] = AppTLBStatsState{
			Accesses: a.Accesses, Hits: a.Hits, Misses: a.Misses,
			EpochAccesses: a.epochAccesses, EpochMisses: a.epochMisses,
		}
	}
	if t.bypass != nil {
		st.Bypass = &BypassState{
			Entries:  t.bypass.tab.snapshot(),
			Stamp:    t.bypass.tab.stamp,
			Accesses: t.bypass.Accesses,
			Hits:     t.bypass.Hits,
		}
	}
	if t.pf != nil {
		p := &PrefetcherState{Stats: t.pf.Stats}
		for _, k := range t.pf.order {
			p.Entries = append(p.Entries, PfEntryState{ASID: k.asid, VPN: k.vpn, Next: t.pf.next[k]})
		}
		for _, asid := range memreq.SortedKeys(t.pf.last, cmp.Compare[uint8]) {
			p.Last = append(p.Last, memreq.PageKey{ASID: asid, VPN: t.pf.last[asid]})
		}
		st.Prefetch = p
	}
	if t.tokens != nil {
		ts := t.tokens.State()
		st.Tokens = &ts
	}
	return st
}

// RestoreState restores an image captured by SnapshotState onto a TLB built
// from the identical configuration. The L1 TLBs restore first: w.Trans
// resolves every key against their miss trackers.
func (t *L2TLB) RestoreState(w *memreq.Wiring, st L2State) error {
	if len(st.Lines) != len(t.lines) {
		return fmt.Errorf("tlb: checkpoint has %d L2 TLB lines, configuration has %d", len(st.Lines), len(t.lines))
	}
	t.stamp = st.Stamp
	for i, es := range st.Lines {
		t.lines[i] = l2entry{
			key: l2key{asid: es.ASID, vpn: es.VPN}, frame: es.Frame,
			valid: es.Valid, stamp: es.Stamp, prefetched: es.Prefetched,
		}
	}
	if err := engine.RestorePipe(t.in, st.In, w.Trans); err != nil {
		return err
	}
	t.mshrs = make(map[l2key]*l2miss, len(st.Mshrs))
	for _, reqs := range st.Mshrs {
		if len(reqs) == 0 {
			return fmt.Errorf("tlb: checkpoint has an L2 TLB miss without a requester")
		}
		m := t.getMiss()
		for _, k := range reqs {
			tr, err := w.Trans(k)
			if err != nil {
				return err
			}
			m.reqs = append(m.reqs, tr)
		}
		m.key, m.appID = l2key{asid: m.reqs[0].ASID, vpn: m.reqs[0].VPN}, m.reqs[0].AppID
		t.mshrs[m.key] = m
	}
	t.stalled = transFIFO{}
	for _, k := range st.Stalled {
		tr, err := w.Trans(k)
		if err != nil {
			return err
		}
		t.stalled.push(tr)
	}
	if len(st.PfInFlight) > 0 && t.pfInFlight == nil {
		return fmt.Errorf("tlb: checkpoint has in-flight prefetches but prefetching is disabled")
	}
	for _, k := range st.PfInFlight {
		t.pfInFlight[l2key{asid: k.ASID, vpn: k.VPN}] = true
	}
	for i := range t.apps {
		a := st.Apps[i]
		t.apps[i] = AppTLBStats{
			Accesses: a.Accesses, Hits: a.Hits, Misses: a.Misses,
			epochAccesses: a.EpochAccesses, epochMisses: a.EpochMisses,
		}
	}
	if st.Bypass != nil {
		if t.bypass == nil {
			return fmt.Errorf("tlb: checkpoint has bypass-cache state but the bypass cache is disabled")
		}
		t.bypass.Accesses = st.Bypass.Accesses
		t.bypass.Hits = st.Bypass.Hits
		if err := t.bypass.tab.restore("bypass-cache", st.Bypass.Stamp, st.Bypass.Entries); err != nil {
			return err
		}
	}
	if st.Prefetch != nil {
		if t.pf == nil {
			return fmt.Errorf("tlb: checkpoint has prefetcher state but prefetching is disabled")
		}
		t.pf.Stats = st.Prefetch.Stats
		t.pf.next = make(map[pfKey]uint64, t.pf.cap)
		t.pf.order = t.pf.order[:0]
		for _, es := range st.Prefetch.Entries {
			k := pfKey{asid: es.ASID, vpn: es.VPN}
			t.pf.next[k] = es.Next
			t.pf.order = append(t.pf.order, k)
		}
		t.pf.last = make(map[uint8]uint64, len(st.Prefetch.Last))
		for _, ls := range st.Prefetch.Last {
			t.pf.last[ls.ASID] = ls.VPN
		}
	}
	if st.Tokens != nil && t.tokens != nil {
		t.tokens.SetState(*st.Tokens)
	}
	return nil
}
