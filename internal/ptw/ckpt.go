package ptw

import (
	"fmt"
	"slices"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/metrics"
)

// WalkerState is the walker's checkpoint image: its walks as they are. A
// walk's page-table addresses are not written: they are a pure function of
// the page table, which is rebuilt deterministically, so restore recomputes
// them.
type WalkerState struct {
	Active  []Walk
	Pending []engine.QueueItem[Walk]
	Stats   Stats
	LatHist *metrics.Histogram
}

// same is the image of a value that is its own image.
func same[T any](v T) T { return v }

// Deliverable implements FaultSink: whether a walk of page key finishing as
// h, whose result goes to the walk sink, has somewhere to deliver it — a
// shared-TLB miss for its page (OriginL2Miss), or the shared TLB's prefetch
// install.
func (w *Walker) Deliverable(key memreq.PageKey, h HeldWalk) bool {
	switch h.Origin {
	case OriginL2Miss:
		return w.sink != nil && w.sink.Awaits(key.ASID, key.VPN)
	case OriginPrefetch:
		return w.sink != nil
	}
	return false
}

// Demands reports whether a demand walk of (asid, vpn) is still to fill the
// shared TLB's miss of that page: an unfinished one, active or waiting for a
// slot, or a finished one a fault holds. A restore checks every shared-TLB
// miss with it.
func (w *Walker) Demands(asid uint8, vpn uint64) bool {
	demand := func(wk *Walk) bool {
		return !wk.Finished && wk.Origin == OriginL2Miss && wk.ASID == asid && wk.VPN == vpn
	}
	for i := range w.active {
		if demand(&w.active[i]) {
			return true
		}
	}
	for i := range w.pending.Len() {
		if demand(w.pending.At(i)) {
			return true
		}
	}
	if w.faults == nil {
		return false
	}
	p := w.faults.pending(memreq.PageKey{ASID: asid, VPN: vpn})
	return p != nil && slices.ContainsFunc(p.Notify, func(h HeldWalk) bool { return h.Origin == OriginL2Miss })
}

// awaited checks that something waits for the result of a walk of page key
// finishing as h: the L1 TLB miss an OriginTrans walk translates for, whose
// key it claims (memreq.Wiring.Trans), or else sink's word.
func awaited(wi *memreq.Wiring, sink FaultSink, key memreq.PageKey, h HeldWalk) error {
	if h.Origin == OriginTrans {
		_, err := wi.Trans(memreq.TransKey{Core: h.Core, VPN: key.VPN})
		return err
	}
	if !sink.Deliverable(key, h) {
		return fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) of origin %d has nothing waiting for its result", key.ASID, key.VPN, h.Origin)
	}
	return nil
}

// SnapshotState captures the walker's checkpoint image, sharing the walker's
// slices: a checkpoint encodes it before the next tick.
func (w *Walker) SnapshotState() WalkerState {
	st := WalkerState{
		Active:  w.active,
		Pending: engine.SnapshotQueue(&w.pending, same[Walk]),
		Stats:   w.Stats,
	}
	if w.latHist != nil {
		h := *w.latHist
		st.LatHist = &h
	}
	return st
}

// RestoreState restores an image captured by SnapshotState onto a walker
// built from the identical configuration. The L1 and L2 TLBs restore first,
// so every walk's continuation resolves, and so do the caches below the
// walker, so every read returning to it is known by the end.
func (w *Walker) RestoreState(wi *memreq.Wiring, st WalkerState) error {
	w.Stats = st.Stats
	if len(st.Active) > w.max {
		return fmt.Errorf("ptw: checkpoint has %d active walks, the walker has %d slots", len(st.Active), w.max)
	}
	for _, wk := range st.Active {
		if err := w.rebuild(wi, &wk); err != nil {
			return err
		}
		w.active = append(w.active, wk)
	}
	if err := engine.RestoreQueue(&w.pending, st.Pending, func(wk Walk) (Walk, error) { return wk, w.rebuild(wi, &wk) }); err != nil {
		return fmt.Errorf("ptw: checkpoint pending walk %w", err)
	}
	if st.LatHist != nil && w.latHist != nil {
		w.latHist.SetState(*st.LatHist)
	}
	for _, r := range wi.Returning(w.route) {
		if wk := w.walkBySerial(r.Tag); wk == nil || wk.Finished || !wk.Waiting {
			return fmt.Errorf("ptw: checkpoint request (addr %#x) returns to walk %d, which awaits no read", r.Addr, r.Tag)
		}
	}
	return nil
}

// rebuild checks a restored walk and recomputes its page-table addresses.
// An unfinished walk claims its translation (OriginTrans) before its page is
// checked, or has something waiting for its result.
func (w *Walker) rebuild(wi *memreq.Wiring, wk *Walk) error {
	key := memreq.PageKey{ASID: wk.ASID, VPN: wk.VPN}
	if err := wi.Walk(wk.ASID, wk.AppID); err != nil {
		return fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x): %w", wk.ASID, wk.VPN, err)
	}
	if !wk.Finished && wk.Origin == OriginTrans {
		if err := awaited(wi, w, key, wk.held()); err != nil {
			return err
		}
	}
	// The address space is an app's (wi.Walk), so the walker has it.
	sp := w.spaces[wk.ASID]
	if _, ok := sp.TranslateVPN(wk.VPN); !ok {
		return fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) is of a page its address space does not map", wk.ASID, wk.VPN)
	}
	wk.levels = len(sp.WalkAddrsInto(wk.VPN, wk.addrs[:0]))
	switch {
	case wk.Finished:
		return nil
	case wk.Level < 1 || wk.Level > wk.levels:
		return fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) is at level %d of %d", wk.ASID, wk.VPN, wk.Level, wk.levels)
	case wk.Origin != OriginTrans:
		return awaited(wi, w, key, wk.held())
	}
	return nil
}

// --- fault unit -------------------------------------------------------------

// FaultUnitState is the fault unit's checkpoint image: its faults as they
// are.
type FaultUnitState struct {
	Resident []memreq.PageKey
	Inflight []PendingFault
	Queue    []engine.QueueItem[PendingFault]
	Stats    FaultStats
}

// SnapshotState captures the fault unit's checkpoint image, sharing the
// unit's slices: a checkpoint encodes it before the next tick.
func (f *FaultUnit) SnapshotState() FaultUnitState {
	return FaultUnitState{
		// The resident set is a map: write it in key order so equal states
		// encode equally.
		Resident: memreq.SortedKeys(f.resident, memreq.PageKey.Compare),
		Inflight: f.inflight,
		Queue:    engine.SnapshotQueue(&f.queue, same[PendingFault]),
		Stats:    f.Stats,
	}
}

// RestoreState restores an image captured by SnapshotState at cycle now onto
// a fault unit attached to a walker; the TLBs restore first, so every held
// walk's continuation resolves.
//
// A run leaves only faults that Touch opened and Tick has not completed. A
// fault holds at least one walk, and its page is not resident. A queued
// fault has no completion cycle. A fault in service started at a cycle u
// no earlier than its first touch and no later than now-1, the last cycle
// ticked, and ends at u + Latency; the Tick of every cycle before now
// completed the faults due by then, so it ends no earlier than now.
func (f *FaultUnit) RestoreState(wi *memreq.Wiring, now int64, st FaultUnitState) error {
	f.Stats = st.Stats
	for _, k := range st.Resident {
		f.resident[k] = true
	}
	if len(st.Inflight) > f.Concurrency {
		return fmt.Errorf("ptw: checkpoint has %d faults in service, concurrency is %d", len(st.Inflight), f.Concurrency)
	}
	check := func(p PendingFault, inService bool) error {
		k := p.Key
		switch first, last := max(p.Start+f.Latency, now), now-1+f.Latency; {
		case f.pending(k) != nil: // a run merges a page's faults into one
			return fmt.Errorf("ptw: checkpoint has two faults of asid %d, vpn %#x", k.ASID, k.VPN)
		case len(p.Notify) == 0:
			return fmt.Errorf("ptw: checkpoint fault of asid %d, vpn %#x holds no walk", k.ASID, k.VPN)
		case f.resident[k]:
			return fmt.Errorf("ptw: checkpoint fault of asid %d, vpn %#x is of a resident page", k.ASID, k.VPN)
		case !inService && p.DoneAt != 0:
			return fmt.Errorf("ptw: checkpoint queued fault of asid %d, vpn %#x ends at cycle %d", k.ASID, k.VPN, p.DoneAt)
		case inService && (p.DoneAt < first || p.DoneAt > last):
			return fmt.Errorf("ptw: checkpoint fault of asid %d, vpn %#x, first touched at cycle %d, ends at cycle %d, not in [%d, %d]", k.ASID, k.VPN, p.Start, p.DoneAt, first, last)
		}
		for _, h := range p.Notify {
			if err := wi.Walk(k.ASID, h.AppID); err != nil {
				return fmt.Errorf("ptw: checkpoint fault of asid %d, vpn %#x holds a %w", k.ASID, k.VPN, err)
			}
			if err := awaited(wi, f.sink, k, h); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range st.Inflight {
		if err := check(p, true); err != nil {
			return err
		}
		f.inflight = append(f.inflight, p)
	}
	if err := engine.RestoreQueue(&f.queue, st.Queue, func(p PendingFault) (PendingFault, error) { return p, check(p, false) }); err != nil {
		return fmt.Errorf("ptw: checkpoint fault queue %w", err)
	}
	return nil
}
