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
		Pending: engine.SnapshotQueue(&t.pending, func(tr *memreq.TransReq) uint64 { return tr.VPN }),
		Stats:   t.Stats,
	}
	st.Mshrs = mshr.Image(&t.mshrs, func(vpn uint64, tr *memreq.TransReq, ws []waiter) L1MissState {
		ms := L1MissState{VPN: vpn, HasToken: tr.HasToken}
		for _, w := range ws {
			ms.Waiting = append(ms.Waiting, WaiterState{Warp: w.warp, Slot: w.slot})
		}
		return ms
	})
	return st
}

// RestoreState restores an image captured by SnapshotState onto a TLB built
// for the same core. The core restores first: every waiter must name, once, a
// warp it has blocked on a translation of that page slot, and the slot must be
// on the miss's page; the core counts each (Waker.Await). A pending
// translation is one of the holders wi.Trans accounts for.
func (t *L1TLB) RestoreState(wi *memreq.Wiring, st L1State) error {
	t.Stats = st.Stats
	if err := t.tab.restore("L1", st.Stamp, st.Entries); err != nil {
		return err
	}
	err := t.mshrs.Restore("L1 misses", len(st.Mshrs), func(i int, wait func(waiter)) (uint64, *memreq.TransReq, error) {
		ms := st.Mshrs[i]
		tr := t.pool.Get()
		tr.AppID, tr.ASID, tr.CoreID = t.appID, t.asid, t.coreID
		tr.VPN, tr.HasToken, tr.StalledWarps = ms.VPN, ms.HasToken, len(ms.Waiting)
		for j, w := range ms.Waiting {
			if t.waker == nil || !t.waker.Await(int(w.Warp), int(w.Slot), ms.VPN) {
				return 0, nil, fmt.Errorf("checkpoint L1 miss for vpn %#x waits for warp %d slot %d, which awaits no translation there for that page", ms.VPN, w.Warp, w.Slot)
			}
			if slices.Contains(ms.Waiting[:j], w) {
				return 0, nil, fmt.Errorf("checkpoint L1 miss for vpn %#x lists warp %d slot %d twice", ms.VPN, w.Warp, w.Slot)
			}
			wait(waiter{w.Warp, w.Slot})
		}
		return ms.VPN, tr, nil
	})
	if err != nil {
		return fmt.Errorf("tlb: L1 TLB of core %d: %w", t.coreID, err)
	}
	if err := engine.RestoreQueue(&t.pending, st.Pending, func(vpn uint64) (*memreq.TransReq, error) {
		return wi.Trans(memreq.TransKey{Core: int32(t.coreID), VPN: vpn})
	}); err != nil {
		return fmt.Errorf("tlb: L1 TLB of core %d pending %w", t.coreID, err)
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
		if e, ok := l1s[k.Core].mshrs.Find(k.VPN); ok {
			return l1s[k.Core].mshrs.Payload(e), nil
		}
		return nil, fmt.Errorf("tlb: checkpoint names the translation of vpn %#x by core %d, which no L1 TLB miss tracks", k.VPN, k.Core)
	}
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

// SnapshotState captures the shared TLB's checkpoint image. Translation
// requests are named by key: their L1 TLB miss trackers write them. The
// image shares the entry array and the per-app counters with the TLB:
// encode it before the TLB ticks again.
func (t *L2TLB) SnapshotState() L2State {
	st := L2State{
		Lines:      t.lines,
		Stamp:      t.stamp,
		In:         engine.SnapshotQueue(&t.in, (*memreq.TransReq).Key),
		Stalled:    engine.SnapshotQueue(&t.stalled, (*memreq.TransReq).Key),
		PfInFlight: memreq.SortedKeys(t.pfInFlight, memreq.PageKey.Compare),
		Apps:       t.apps,
	}
	st.Mshrs = mshr.Image(&t.mshrs, func(_ memreq.PageKey, _ int, ws []*memreq.TransReq) []memreq.TransKey {
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
			k := t.pf.order.At(i)
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
// resolves every key against their miss trackers.
func (t *L2TLB) RestoreState(w *memreq.Wiring, st L2State) error {
	if len(st.Lines) != len(t.lines) {
		return fmt.Errorf("tlb: checkpoint has %d L2 TLB lines, configuration has %d", len(st.Lines), len(t.lines))
	}
	t.stamp = st.Stamp
	copy(t.lines, st.Lines)
	if err := engine.RestoreQueue(&t.in, st.In, w.Trans); err != nil {
		return fmt.Errorf("tlb: checkpoint L2 TLB input %w", err)
	}
	// The first requester of a miss is the lookup that missed, whose page and
	// application are the miss's. A run merges every miss of a page into its
	// one entry, which its walk fills.
	err := t.mshrs.Restore("L2 TLB misses", len(st.Mshrs), func(i int, wait func(*memreq.TransReq)) (key memreq.PageKey, app int, err error) {
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
	if err := engine.RestoreQueue(&t.stalled, st.Stalled, w.Trans); err != nil {
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
