package tlb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/mshr"
)

// --- L1 TLB -----------------------------------------------------------------

// WaiterState names one warp blocked on an L1 miss and the page slot of its
// memory instruction (gpu.WarpState.Pages) the translation is for: a miss's
// waiter, as the miss holds it and its image writes it.
type WaiterState struct {
	Warp, Slot int32
}

// L1MissState is one outstanding L1 miss with its blocked warps in arrival
// order, at least one. The miss writes what its translation carries beyond
// what the TLB implies (core, app and ASID are the TLB's own): every holder
// of the translation names it by memreq.TransKey.
type L1MissState struct {
	VPN      uint64
	HasToken bool
	Waiting  []WaiterState
}

// L1State is the L1 TLB's checkpoint image. Entries are written from LRU to
// MRU; restore accepts any order and rebuilds recency from the stamps.
// Pending names the misses the backend refused by VPN, in retry order.
type L1State struct {
	Entries []Entry
	Stamp   int64
	Mshrs   []L1MissState
	Pending []engine.QueueItem[uint64]
	Stats   L1Stats
}

// SnapshotState captures the L1 TLB's checkpoint image.
func (t *L1TLB) SnapshotState() L1State {
	st := L1State{
		Entries: t.tab.entries(),
		Stamp:   t.tab.stamp,
		Pending: engine.SnapshotQueue(&t.pending, func(tr memreq.Trans) uint64 { return tr.VPN }),
		Stats:   t.Stats,
	}
	st.Mshrs = mshr.Image(&t.mshrs, func(vpn uint64, hasToken bool, ws []WaiterState) L1MissState {
		return L1MissState{VPN: vpn, HasToken: hasToken, Waiting: slices.Clone(ws)}
	})
	return st
}

// RestoreState restores an image captured by SnapshotState onto a TLB built
// for the same core. The core restores first: every waiter must name, once, a
// warp it has blocked on a translation of that page slot, and the slot must be
// on the miss's page; the core counts each (Waker.Await). A miss opens with
// its first waiter, so one without is rejected. A pending translation is one
// of the holders wi.Trans accounts for.
func (t *L1TLB) RestoreState(wi *memreq.Wiring, st L1State) error {
	t.Stats = st.Stats
	if err := t.tab.restore("L1", st.Stamp, st.Entries); err != nil {
		return err
	}
	err := t.mshrs.Restore("L1 misses", len(st.Mshrs), func(i int, wait func(WaiterState)) (uint64, bool, error) {
		ms := st.Mshrs[i]
		if len(ms.Waiting) == 0 {
			return 0, false, fmt.Errorf("checkpoint L1 miss for vpn %#x has no waiter", ms.VPN)
		}
		for j, w := range ms.Waiting {
			if t.waker == nil || !t.waker.Await(int(w.Warp), int(w.Slot), ms.VPN) {
				return 0, false, fmt.Errorf("checkpoint L1 miss for vpn %#x waits for warp %d slot %d, which awaits no translation there for that page", ms.VPN, w.Warp, w.Slot)
			}
			if slices.Contains(ms.Waiting[:j], w) {
				return 0, false, fmt.Errorf("checkpoint L1 miss for vpn %#x lists warp %d slot %d twice", ms.VPN, w.Warp, w.Slot)
			}
			wait(w)
		}
		return ms.VPN, ms.HasToken, nil
	})
	if err != nil {
		return fmt.Errorf("tlb: L1 TLB of core %d: %w", t.coreID, err)
	}
	if err := engine.RestoreQueue(&t.pending, wi.Now, st.Pending, func(vpn uint64) (memreq.Trans, error) {
		return wi.Trans(memreq.TransKey{Core: int32(t.coreID), VPN: vpn})
	}); err != nil {
		return fmt.Errorf("tlb: L1 TLB of core %d pending %w", t.coreID, err)
	}
	return nil
}

// Holders resolves the keys a checkpoint names translations by against the
// restored L1 TLBs. A run holds the translation of every open L1 miss in
// exactly one place — the L1 TLB's retry queue, the shared TLB's pipe,
// stalled queue or a miss's waiters, a walk, a fault — so Trans hands out
// each key once (a resumed run would complete a key named twice twice), and
// Unheld rejects a miss no holder named (it would never return).
type Holders struct {
	l1s  L1TLBs
	held map[memreq.TransKey]bool
}

// Holders returns the resolver of one restore onto ts, which restore first.
func (ts L1TLBs) Holders() *Holders {
	return &Holders{l1s: ts, held: make(map[memreq.TransKey]bool)}
}

// Trans resolves k to the translation of the L1 miss it names
// (memreq.Wiring.Trans).
func (h *Holders) Trans(k memreq.TransKey) (memreq.Trans, error) {
	if h.held[k] {
		return memreq.Trans{}, fmt.Errorf("tlb: checkpoint names one translation from two holders: core %d, vpn %#x", k.Core, k.VPN)
	}
	h.held[k] = true
	if k.Core < 0 || int(k.Core) >= len(h.l1s) {
		return memreq.Trans{}, fmt.Errorf("tlb: checkpoint names the L1 TLB of core %d, there are %d", k.Core, len(h.l1s))
	}
	t := h.l1s[k.Core]
	if e, ok := t.mshrs.Find(k.VPN); ok {
		return t.trans(k.VPN, t.mshrs.Payload(e)), nil
	}
	return memreq.Trans{}, fmt.Errorf("tlb: checkpoint names the translation of vpn %#x by core %d, which no L1 TLB miss tracks", k.VPN, k.Core)
}

// Unheld rejects an L1 miss whose translation no holder named. Every holder
// restores first.
func (h *Holders) Unheld() error {
	for _, t := range h.l1s {
		for e := range t.mshrs.Len() {
			if vpn := t.mshrs.Key(e); !h.held[memreq.TransKey{Core: int32(t.coreID), VPN: vpn}] {
				return fmt.Errorf("tlb: checkpoint L1 TLB miss of core %d, vpn %#x has a translation no queue, miss, walk or fault holds", t.coreID, vpn)
			}
		}
	}
	return nil
}

// --- token policy -----------------------------------------------------------

// State captures the policy's adaptive state.
func (p *TokenPolicy) State() TokenState { return p.state }

// SetState restores state captured from a policy built with the same app
// count and warps per core; an image with another app count is rejected.
func (p *TokenPolicy) SetState(st TokenState) error {
	n := len(p.state.TokensPerCore)
	if len(st.TokensPerCore) != n || len(st.PrevMissRate) != n || len(st.Dir) != n {
		return fmt.Errorf("tlb: checkpoint token state has %d/%d/%d per-app entries, policy has %d apps",
			len(st.TokensPerCore), len(st.PrevMissRate), len(st.Dir), n)
	}
	p.state = st
	return nil
}

// --- shared L2 TLB ----------------------------------------------------------

// BypassState is the TLB bypass cache's checkpoint image, with the same
// entry-order rule as L1State.
type BypassState struct {
	Entries  []Entry
	Stamp    int64
	Accesses uint64
	Hits     uint64
}

// PfEntryState is one correlation-table transition, stored in FIFO insertion
// order so bounded eviction resumes identically.
type PfEntryState struct {
	Key  memreq.PageKey
	Next uint64
}

// PrefetcherState is the correlation prefetcher's checkpoint image; Last
// holds each address space's most recent demand VPN.
type PrefetcherState struct {
	Entries []PfEntryState
	Last    []memreq.PageKey
	Stats   PrefetchStats
}

// L2State is the shared TLB's checkpoint image. Lines and Apps are the
// TLB's entry array and per-app counters as they are. Mshrs holds each miss
// tracker's merged requesters in arrival order, all for the tracker's page;
// the first is the lookup that missed, whose application is the tracker's.
type L2State struct {
	Lines      []L2Entry
	Stamp      int64
	In         []engine.QueueItem[memreq.TransKey]
	Mshrs      [][]memreq.TransKey
	Stalled    []engine.QueueItem[memreq.TransKey]
	PfInFlight []memreq.PageKey
	Apps       []AppTLBCounters
	Bypass     *BypassState
	Prefetch   *PrefetcherState
	Tokens     *TokenState
}

// SnapshotState captures the shared TLB's checkpoint image. Translations are
// named by key: their L1 TLB misses write them. The
// image shares the entry array and the per-app counters with the TLB:
// encode it before the TLB ticks again.
func (t *L2TLB) SnapshotState() L2State {
	st := L2State{
		Lines:      t.lines,
		Stamp:      t.stamp,
		In:         engine.SnapshotQueue(&t.in, memreq.Trans.Key),
		Stalled:    engine.SnapshotQueue(&t.stalled, memreq.Trans.Key),
		PfInFlight: memreq.SortedKeys(t.pfInFlight, memreq.PageKey.Compare),
		Apps:       t.apps,
	}
	st.Mshrs = mshr.Image(&t.mshrs, func(_ memreq.PageKey, _ int, ws []memreq.Trans) []memreq.TransKey {
		var reqs []memreq.TransKey
		for _, tr := range ws {
			reqs = append(reqs, tr.Key())
		}
		return reqs
	})
	if t.bypass != nil {
		st.Bypass = &BypassState{
			Entries:  t.bypass.tab.entries(),
			Stamp:    t.bypass.tab.stamp,
			Accesses: t.bypass.Accesses,
			Hits:     t.bypass.Hits,
		}
	}
	if t.pf != nil {
		p := &PrefetcherState{Stats: t.pf.Stats}
		for i := 0; i < t.pf.order.Len(); i++ {
			k := *t.pf.order.At(i)
			p.Entries = append(p.Entries, PfEntryState{Key: k, Next: t.pf.next[k]})
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
// resolves every key against their misses.
func (t *L2TLB) RestoreState(w *memreq.Wiring, st L2State) error {
	if len(st.Lines) != len(t.lines) {
		return fmt.Errorf("tlb: checkpoint has %d L2 TLB lines, configuration has %d", len(st.Lines), len(t.lines))
	}
	t.stamp = st.Stamp
	copy(t.lines, st.Lines)
	if err := engine.RestoreQueue(&t.in, w.Now, st.In, w.Trans); err != nil {
		return fmt.Errorf("tlb: checkpoint L2 TLB input %w", err)
	}
	// The first requester of a miss is the lookup that missed, whose page and
	// application are the miss's. A run merges every miss of a page into its
	// one entry, which its walk fills.
	err := t.mshrs.Restore("L2 TLB misses", len(st.Mshrs), func(i int, wait func(memreq.Trans)) (key memreq.PageKey, app int, err error) {
		if len(st.Mshrs[i]) == 0 {
			return key, 0, errors.New("checkpoint has an L2 TLB miss without a requester")
		}
		for j, k := range st.Mshrs[i] {
			tr, err := w.Trans(k)
			if err != nil {
				return key, 0, err
			}
			if j == 0 {
				key, app = memreq.PageKey{ASID: tr.ASID, VPN: tr.VPN}, tr.AppID
			} else if tr.ASID != key.ASID || tr.VPN != key.VPN {
				return key, 0, fmt.Errorf("checkpoint L2 TLB miss of asid %d, vpn %#x merges a requester of vpn %#x", key.ASID, key.VPN, tr.VPN)
			}
			wait(tr)
		}
		return key, app, nil
	})
	if err != nil {
		return fmt.Errorf("tlb: %w", err)
	}
	if err := engine.RestoreQueue(&t.stalled, w.Now, st.Stalled, w.Trans); err != nil {
		return fmt.Errorf("tlb: checkpoint L2 TLB stalled %w", err)
	}
	if len(st.PfInFlight) > 0 && t.pfInFlight == nil {
		return fmt.Errorf("tlb: checkpoint has in-flight prefetches but prefetching is disabled")
	}
	for _, k := range st.PfInFlight {
		t.pfInFlight[k] = true
	}
	if len(st.Apps) != len(t.apps) {
		return fmt.Errorf("tlb: checkpoint has L2 TLB counters of %d apps, configuration has %d", len(st.Apps), len(t.apps))
	}
	copy(t.apps, st.Apps)
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
		if len(st.Prefetch.Entries) > t.pf.cap {
			return fmt.Errorf("tlb: checkpoint has %d prefetcher entries, capacity is %d", len(st.Prefetch.Entries), t.pf.cap)
		}
		t.pf.Stats = st.Prefetch.Stats
		for _, es := range st.Prefetch.Entries {
			k := es.Key
			if _, dup := t.pf.next[k]; dup {
				return fmt.Errorf("tlb: checkpoint has a duplicate prefetcher entry (asid %d, vpn %#x)", k.ASID, k.VPN)
			}
			t.pf.next[k] = es.Next
			t.pf.order.Push(0, k)
		}
		for _, ls := range st.Prefetch.Last {
			t.pf.last[ls.ASID] = ls.VPN
		}
	}
	if (st.Tokens != nil) != (t.tokens != nil) {
		return fmt.Errorf("tlb: checkpoint and configuration differ in their TLB-fill token policy")
	}
	if t.tokens != nil {
		return t.tokens.SetState(*st.Tokens)
	}
	return nil
}

// CheckWalks rejects a miss no demand walk will fill: demands reports whether
// a demand walk of (asid, vpn) is active, waits for a walker slot or is held
// by a fault. A run starts one as it opens the miss, and the walk fills it as
// it ends. The walker and its fault unit restore first.
func (t *L2TLB) CheckWalks(demands func(asid uint8, vpn uint64) bool) error {
	for e := range t.mshrs.Len() {
		if k := t.mshrs.Key(e); !demands(k.ASID, k.VPN) {
			return fmt.Errorf("tlb: checkpoint L2 TLB miss of asid %d, vpn %#x has no demand walk to fill it", k.ASID, k.VPN)
		}
	}
	return nil
}
