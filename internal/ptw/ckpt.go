package ptw

import (
	"fmt"
	"slices"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/metrics"
)

// WalkState is one in-flight (or queued, or finished-but-uncompacted) walk:
// its plain state as it is, and the translation it completes by key. The
// per-level physical addresses are not serialized: they are a pure function
// of the page table, which is rebuilt deterministically, so restore
// recomputes them.
type WalkState struct {
	Walk
	// Tr names the translation an unfinished OriginTrans walk completes, by
	// the key of its L1 TLB miss.
	Tr memreq.TransKey
}

// WalkerState is the walker's checkpoint image.
type WalkerState struct {
	Active  []WalkState
	Pending []engine.QueueItem[WalkState]
	Stats   Stats
	LatHist *metrics.Histogram
}

// Deliverable implements FaultSink: whether a walk finishing as h, whose
// result goes to the walk sink, has somewhere to deliver it — a shared-TLB
// miss for its page (OriginL2Miss), or the shared TLB's prefetch install.
func (w *Walker) Deliverable(h HeldWalk) bool {
	switch h.Origin {
	case OriginL2Miss:
		return w.sink != nil && w.sink.Awaits(h.ASID, h.VPN)
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
	walks := slices.Clone(w.active)
	for i := range w.pending.Len() {
		walks = append(walks, w.pending.At(i))
	}
	if slices.ContainsFunc(walks, func(wk *walk) bool {
		return !wk.Finished && wk.Origin == OriginL2Miss && wk.ASID == asid && wk.VPN == vpn
	}) {
		return true
	}
	if w.faults == nil {
		return false
	}
	p := w.faults.pending(memreq.PageKey{ASID: asid, VPN: vpn})
	return p != nil && slices.ContainsFunc(p.notify, func(h HeldWalk) bool { return h.Origin == OriginL2Miss })
}

// resolveHeld gives a restored walk's result its route: the translation of
// an OriginTrans walk, found by the key of its L1 TLB miss, or else sink's
// word that something still waits for the result.
func resolveHeld(wi *memreq.Wiring, sink FaultSink, h *HeldWalk, key memreq.TransKey) error {
	if h.Origin == OriginTrans {
		tr, err := wi.Trans(key)
		h.Tr = tr
		return err
	}
	if !sink.Deliverable(*h) {
		return fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) of origin %d has nothing waiting for its result", h.ASID, h.VPN, h.Origin)
	}
	return nil
}

// SnapshotState captures the walker's checkpoint image.
func (w *Walker) SnapshotState() WalkerState {
	st := WalkerState{Stats: w.Stats}
	snap := func(wk *walk) WalkState {
		ws := WalkState{Walk: wk.Walk}
		// A finished walk has already delivered its continuation, or a
		// fault holds it; only live continuations serialize.
		if !wk.Finished && wk.Origin == OriginTrans {
			ws.Tr = wk.tr.Key()
		}
		return ws
	}
	for _, wk := range w.active {
		st.Active = append(st.Active, snap(wk))
	}
	st.Pending = engine.SnapshotQueue(&w.pending, snap)
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
	for _, ws := range st.Active {
		wk, err := w.buildWalk(wi, ws)
		if err != nil {
			return err
		}
		w.active = append(w.active, wk)
	}
	if err := engine.RestoreQueue(&w.pending, st.Pending, func(ws WalkState) (*walk, error) { return w.buildWalk(wi, ws) }); err != nil {
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

// buildWalk rebuilds the walk of ws, recomputing its page-table addresses.
func (w *Walker) buildWalk(wi *memreq.Wiring, ws WalkState) (*walk, error) {
	sp, ok := w.spaces[ws.ASID]
	if !ok {
		return nil, fmt.Errorf("ptw: checkpoint walk for unregistered ASID %d", ws.ASID)
	}
	if _, ok := sp.TranslateVPN(ws.VPN); !ok {
		return nil, fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) is of a page its address space does not map", ws.ASID, ws.VPN)
	}
	if err := wi.Walk(ws.ASID, ws.AppID); err != nil {
		return nil, fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x): %w", ws.ASID, ws.VPN, err)
	}
	wk := w.walkFree.Get()
	wk.Walk = ws.Walk
	wk.addrs = sp.WalkAddrsInto(ws.VPN, wk.buf[:0])
	if !ws.Finished {
		if ws.Level < 1 || ws.Level > len(wk.addrs) {
			return nil, fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) is at level %d of %d", ws.ASID, ws.VPN, ws.Level, len(wk.addrs))
		}
		h := HeldWalk{Origin: ws.Origin, ASID: ws.ASID, VPN: ws.VPN}
		if err := resolveHeld(wi, w, &h, ws.Tr); err != nil {
			return nil, err
		}
		wk.tr = h.Tr
	}
	return wk, nil
}

// --- fault unit -------------------------------------------------------------

// FaultNotifyState is one held walk in serialized form; its page is the
// fault's.
type FaultNotifyState struct {
	Start  int64
	Origin uint8
	AppID  int
	// Tr names the translation of an OriginTrans walk by its L1 TLB miss.
	Tr memreq.TransKey
}

// PendingFaultState is one in-flight or queued page fault: its plain state
// as it is, and the walks it holds.
type PendingFaultState struct {
	Fault
	Notify []FaultNotifyState
}

// FaultUnitState is the fault unit's checkpoint image.
type FaultUnitState struct {
	Resident []memreq.PageKey
	Inflight []PendingFaultState
	Queue    []engine.QueueItem[PendingFaultState]
	Stats    FaultStats
}

// SnapshotState captures the fault unit's checkpoint image.
func (f *FaultUnit) SnapshotState() FaultUnitState {
	st := FaultUnitState{Stats: f.Stats}
	// The resident set is a map: write it in key order so equal states
	// encode equally.
	st.Resident = memreq.SortedKeys(f.resident, memreq.PageKey.Compare)
	snap := func(p *pendingFault) PendingFaultState {
		ps := PendingFaultState{Fault: p.Fault}
		for _, h := range p.notify {
			ns := FaultNotifyState{Start: h.Start, Origin: uint8(h.Origin), AppID: h.AppID}
			if h.Origin == OriginTrans {
				ns.Tr = h.Tr.Key()
			}
			ps.Notify = append(ps.Notify, ns)
		}
		return ps
	}
	for _, p := range f.inflight {
		st.Inflight = append(st.Inflight, snap(p))
	}
	st.Queue = engine.SnapshotQueue(&f.queue, snap)
	return st
}

// RestoreState restores an image captured by SnapshotState onto a fault unit
// attached to a walker; the TLBs restore first, so every held walk's
// continuation resolves.
func (f *FaultUnit) RestoreState(wi *memreq.Wiring, st FaultUnitState) error {
	f.Stats = st.Stats
	for _, k := range st.Resident {
		f.resident[k] = true
	}
	if len(st.Inflight) > f.Concurrency {
		return fmt.Errorf("ptw: checkpoint has %d faults in service, concurrency is %d", len(st.Inflight), f.Concurrency)
	}
	build := func(ps PendingFaultState) (*pendingFault, error) {
		k := ps.Key
		if f.pending(k) != nil { // a run merges a page's faults into one
			return nil, fmt.Errorf("ptw: checkpoint has two faults of asid %d, vpn %#x", k.ASID, k.VPN)
		}
		p := &pendingFault{Fault: ps.Fault}
		for _, ns := range ps.Notify {
			if err := wi.Walk(k.ASID, ns.AppID); err != nil {
				return nil, fmt.Errorf("ptw: checkpoint fault of asid %d, vpn %#x holds a %w", k.ASID, k.VPN, err)
			}
			h := HeldWalk{
				Start: ns.Start, Origin: WalkOrigin(ns.Origin), AppID: ns.AppID,
				ASID: k.ASID, VPN: k.VPN,
			}
			if err := resolveHeld(wi, f.sink, &h, ns.Tr); err != nil {
				return nil, err
			}
			p.notify = append(p.notify, h)
		}
		return p, nil
	}
	for _, ps := range st.Inflight {
		p, err := build(ps)
		if err != nil {
			return err
		}
		f.inflight = append(f.inflight, p)
	}
	if err := engine.RestoreQueue(&f.queue, st.Queue, build); err != nil {
		return fmt.Errorf("ptw: checkpoint fault queue %w", err)
	}
	return nil
}
