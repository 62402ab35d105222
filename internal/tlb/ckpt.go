package tlb

import (
	"cmp"
	"fmt"
	"slices"

	"masksim/internal/engine"
	"masksim/internal/memreq"
)

// --- L1 TLB -----------------------------------------------------------------

// L1EntryState is one cached translation.
type L1EntryState struct {
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
// order.
type L1MissState struct {
	VPN     uint64
	Tr      int32
	Waiting []WaiterState
}

// L1State is the L1 TLB's checkpoint image. Entries are written from LRU to
// MRU; restore accepts any order and rebuilds recency from the stamps.
type L1State struct {
	Entries  []L1EntryState
	Stamp    int64
	Mshrs    []L1MissState
	Pending  []int32
	MissFree int
	Stats    L1Stats
}

// SnapshotState implements engine.Snapshotter; ctx is the *memreq.Table.
func (t *L1TLB) SnapshotState(ctx any) (any, error) {
	tab, ok := ctx.(*memreq.Table)
	if !ok {
		return nil, fmt.Errorf("tlb: snapshot context is %T, want *memreq.Table", ctx)
	}
	st := L1State{
		Stamp:    t.tab.stamp,
		MissFree: t.missFree.Len(),
		Stats:    t.Stats,
	}
	for _, e := range t.tab.entries() {
		st.Entries = append(st.Entries, L1EntryState{VPN: e.key.vpn, Frame: e.frame, Stamp: e.stamp})
	}
	// Map-backed sets are written in key order throughout this file, so
	// equal states encode equally and request indices do not depend on map
	// iteration.
	for _, vpn := range sortedKeys(t.mshrs, cmp.Compare[uint64]) {
		m := t.mshrs[vpn]
		ms := L1MissState{VPN: vpn, Tr: tab.Trans(m.tr)}
		for _, w := range m.waiting {
			ms.Waiting = append(ms.Waiting, WaiterState{Warp: w.warp, Slot: w.slot})
		}
		st.Mshrs = append(st.Mshrs, ms)
	}
	for _, tr := range t.pending {
		st.Pending = append(st.Pending, tab.Trans(tr))
	}
	return st, nil
}

// sortedKeys returns m's keys in cmp order.
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

func compareKeys(a, b l2key) int {
	if c := cmp.Compare(a.asid, b.asid); c != 0 {
		return c
	}
	return cmp.Compare(a.vpn, b.vpn)
}

// RestoreState implements engine.Snapshotter; ctx is the *memreq.RestoreTable.
func (t *L1TLB) RestoreState(ctx any, state any) error {
	rt, ok := ctx.(*memreq.RestoreTable)
	if !ok {
		return fmt.Errorf("tlb: restore context is %T, want *memreq.RestoreTable", ctx)
	}
	st, ok := state.(L1State)
	if !ok {
		return fmt.Errorf("tlb: restore state is %T, want L1State", state)
	}
	t.Stats = st.Stats
	es := make([]assocEntry, len(st.Entries))
	for i, e := range st.Entries {
		es[i] = assocEntry{key: l2key{t.asid, e.VPN}, frame: e.Frame, stamp: e.Stamp}
	}
	if err := t.tab.restore("L1", st.Stamp, es); err != nil {
		return err
	}
	t.mshrs = make(map[uint64]*l1miss, len(st.Mshrs))
	for _, ms := range st.Mshrs {
		m := t.getMiss()
		m.vpn, m.tr = ms.VPN, rt.Trans(ms.Tr)
		for _, w := range ms.Waiting {
			m.waiting = append(m.waiting, waiter{w.Warp, w.Slot})
		}
		t.mshrs[ms.VPN] = m
	}
	t.missFree.Refill(st.MissFree)
	t.pending = t.pending[:0]
	for _, ref := range st.Pending {
		t.pending = append(t.pending, rt.Trans(ref))
	}
	return nil
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

// L2MissState is one outstanding shared-TLB miss with its merged requesters.
type L2MissState struct {
	ASID  uint8
	VPN   uint64
	AppID int
	Reqs  []int32
}

// PfKeyState identifies one (asid, vpn) pair in prefetcher/bypass images.
type PfKeyState struct {
	ASID uint8
	VPN  uint64
}

// BypassEntryState is one bypass-cache translation.
type BypassEntryState struct {
	ASID  uint8
	VPN   uint64
	Frame uint64
	Stamp int64
}

// BypassState is the TLB bypass cache's checkpoint image, with the same
// entry-order rule as L1State.
type BypassState struct {
	Entries  []BypassEntryState
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

// PfLastState is one address space's most recent demand VPN.
type PfLastState struct {
	ASID uint8
	VPN  uint64
}

// PrefetcherState is the correlation prefetcher's checkpoint image.
type PrefetcherState struct {
	Entries []PfEntryState
	Last    []PfLastState
	Stats   PrefetchStats
}

// L2State is the shared TLB's checkpoint image.
type L2State struct {
	Lines      []L2EntryState
	Stamp      int64
	In         []engine.PipeItemRef
	Mshrs      []L2MissState
	MissFree   int
	Stalled    []int32
	PfInFlight []PfKeyState
	Apps       []AppTLBStatsState
	Bypass     *BypassState
	Prefetch   *PrefetcherState
	Tokens     *TokenState
}

// SnapshotState implements engine.Snapshotter; ctx is the *memreq.Table.
func (t *L2TLB) SnapshotState(ctx any) (any, error) {
	tab, ok := ctx.(*memreq.Table)
	if !ok {
		return nil, fmt.Errorf("tlb: snapshot context is %T, want *memreq.Table", ctx)
	}
	st := L2State{
		Stamp:    t.stamp,
		In:       engine.SnapshotRefs(t.in, tab.Trans),
		MissFree: t.missFree.Len(),
	}
	st.Lines = make([]L2EntryState, len(t.lines))
	for i := range t.lines {
		e := &t.lines[i]
		st.Lines[i] = L2EntryState{
			ASID: e.key.asid, VPN: e.key.vpn, Frame: e.frame,
			Valid: e.valid, Stamp: e.stamp, Prefetched: e.prefetched,
		}
	}
	for _, key := range sortedKeys(t.mshrs, compareKeys) {
		m := t.mshrs[key]
		ms := L2MissState{ASID: key.asid, VPN: key.vpn, AppID: m.appID}
		for _, tr := range m.reqs {
			ms.Reqs = append(ms.Reqs, tab.Trans(tr))
		}
		st.Mshrs = append(st.Mshrs, ms)
	}
	for _, tr := range t.stalled.live() {
		st.Stalled = append(st.Stalled, tab.Trans(tr))
	}
	for _, key := range sortedKeys(t.pfInFlight, compareKeys) {
		st.PfInFlight = append(st.PfInFlight, PfKeyState{ASID: key.asid, VPN: key.vpn})
	}
	st.Apps = make([]AppTLBStatsState, len(t.apps))
	for i, a := range t.apps {
		st.Apps[i] = AppTLBStatsState{
			Accesses: a.Accesses, Hits: a.Hits, Misses: a.Misses,
			EpochAccesses: a.epochAccesses, EpochMisses: a.epochMisses,
		}
	}
	if t.bypass != nil {
		b := &BypassState{
			Stamp:    t.bypass.tab.stamp,
			Accesses: t.bypass.Accesses,
			Hits:     t.bypass.Hits,
		}
		for _, e := range t.bypass.tab.entries() {
			b.Entries = append(b.Entries, BypassEntryState{
				ASID: e.key.asid, VPN: e.key.vpn, Frame: e.frame, Stamp: e.stamp,
			})
		}
		st.Bypass = b
	}
	if t.pf != nil {
		p := &PrefetcherState{Stats: t.pf.Stats}
		for _, k := range t.pf.order {
			p.Entries = append(p.Entries, PfEntryState{ASID: k.asid, VPN: k.vpn, Next: t.pf.next[k]})
		}
		for _, asid := range sortedKeys(t.pf.last, cmp.Compare[uint8]) {
			p.Last = append(p.Last, PfLastState{ASID: asid, VPN: t.pf.last[asid]})
		}
		st.Prefetch = p
	}
	if t.tokens != nil {
		ts := t.tokens.State()
		st.Tokens = &ts
	}
	return st, nil
}

// RestoreState implements engine.Snapshotter; ctx is the *memreq.RestoreTable.
func (t *L2TLB) RestoreState(ctx any, state any) error {
	rt, ok := ctx.(*memreq.RestoreTable)
	if !ok {
		return fmt.Errorf("tlb: restore context is %T, want *memreq.RestoreTable", ctx)
	}
	st, ok := state.(L2State)
	if !ok {
		return fmt.Errorf("tlb: restore state is %T, want L2State", state)
	}
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
	engine.RestoreRefs(t.in, st.In, rt.Trans)
	t.mshrs = make(map[l2key]*l2miss, len(st.Mshrs))
	for _, ms := range st.Mshrs {
		m := t.getMiss()
		m.key, m.appID = l2key{asid: ms.ASID, vpn: ms.VPN}, ms.AppID
		for _, ref := range ms.Reqs {
			m.reqs = append(m.reqs, rt.Trans(ref))
		}
		t.mshrs[m.key] = m
	}
	t.missFree.Refill(st.MissFree)
	t.stalled = transFIFO{}
	for _, ref := range st.Stalled {
		t.stalled.push(rt.Trans(ref))
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
		es := make([]assocEntry, len(st.Bypass.Entries))
		for i, e := range st.Bypass.Entries {
			es[i] = assocEntry{key: l2key{e.ASID, e.VPN}, frame: e.Frame, stamp: e.Stamp}
		}
		if err := t.bypass.tab.restore("bypass-cache", st.Bypass.Stamp, es); err != nil {
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
