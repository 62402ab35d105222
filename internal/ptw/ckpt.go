package ptw

import (
	"fmt"
	"slices"

	"masksim/internal/memreq"
	"masksim/internal/metrics"
)

// WalkState is one in-flight (or queued, or finished-but-uncompacted) walk.
// The per-level physical addresses are not serialized: they are a pure
// function of the page table, which is rebuilt deterministically, so restore
// recomputes them.
type WalkState struct {
	ASID   uint8
	AppID  int
	VPN    uint64
	Origin uint8
	Serial uint64
	// Tr names the TransReq an unfinished OriginTrans walk completes, by the
	// key of its L1 TLB miss tracker.
	Tr       memreq.TransKey
	Level    int
	Waiting  bool
	Finished bool
	Start    int64
}

// WalkerState is the walker's checkpoint image.
type WalkerState struct {
	Active  []WalkState
	Pending []WalkState
	Stats   Stats
	LatHist *metrics.HistogramState
}

// Deliverable implements FaultSink: whether a walk finishing as h has
// somewhere to deliver its result — its TransReq (OriginTrans), a shared-TLB
// miss tracker for its page (OriginL2Miss), or the shared TLB's prefetch
// install.
func (w *Walker) Deliverable(h HeldWalk) bool {
	switch h.Origin {
	case OriginTrans:
		return h.Tr != nil
	case OriginL2Miss:
		return w.sink != nil && w.sink.Awaits(h.ASID, h.VPN)
	case OriginPrefetch:
		return w.sink != nil
	}
	return false
}

// resolveHeld gives a restored walk's result its route: the TransReq of an
// OriginTrans walk, found by key, and sink's word that something still waits
// for the result.
func resolveHeld(wi *memreq.Wiring, sink FaultSink, h *HeldWalk, key memreq.TransKey) error {
	if h.Origin == OriginTrans {
		tr, err := wi.Trans(key)
		if err != nil {
			return err
		}
		h.Tr = tr
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
		ws := WalkState{
			ASID: wk.asid, AppID: wk.appID, VPN: wk.vpn,
			Origin: uint8(wk.origin), Serial: wk.serial, Level: wk.level,
			Waiting: wk.waiting, Finished: wk.finished, Start: wk.start,
		}
		// A finished walk has already delivered its continuation (tr may
		// point at a recycled object); only live continuations serialize.
		if !wk.finished && wk.tr != nil {
			ws.Tr = wk.tr.Key()
		}
		return ws
	}
	for _, wk := range w.active {
		st.Active = append(st.Active, snap(wk))
	}
	for _, wk := range w.pending {
		st.Pending = append(st.Pending, snap(wk))
	}
	if w.latHist != nil {
		h := w.latHist.State()
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
	var err error
	if w.active, err = w.buildWalks(wi, w.active[:0], st.Active); err != nil {
		return err
	}
	if w.pending, err = w.buildWalks(wi, w.pending[:0], st.Pending); err != nil {
		return err
	}
	clear(w.perAppActive)
	for _, wk := range w.active {
		if !wk.finished && wk.appID >= 0 && wk.appID < len(w.perAppActive) {
			w.perAppActive[wk.appID]++
		}
	}
	if st.LatHist != nil && w.latHist != nil {
		w.latHist.SetState(*st.LatHist)
	}
	for _, r := range wi.Returning(w.route) {
		if wk := w.walkBySerial(r.Tag); wk == nil || wk.finished || !wk.waiting {
			return fmt.Errorf("ptw: checkpoint request (addr %#x) returns to walk %d, which awaits no read", r.Addr, r.Tag)
		}
	}
	return nil
}

// buildWalks appends the walks of sts to dst, recomputing their page-table
// addresses.
func (w *Walker) buildWalks(wi *memreq.Wiring, dst []*walk, sts []WalkState) ([]*walk, error) {
	for _, ws := range sts {
		sp, ok := w.spaces[ws.ASID]
		if !ok {
			return dst, fmt.Errorf("ptw: checkpoint walk for unregistered ASID %d", ws.ASID)
		}
		if _, ok := sp.TranslateVPN(ws.VPN); !ok {
			return dst, fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) is of a page its address space does not map", ws.ASID, ws.VPN)
		}
		wk, _ := w.walkFree.Get()
		wk.asid, wk.appID, wk.vpn = ws.ASID, ws.AppID, ws.VPN
		wk.origin, wk.serial = WalkOrigin(ws.Origin), ws.Serial
		wk.level, wk.waiting, wk.finished, wk.start = ws.Level, ws.Waiting, ws.Finished, ws.Start
		wk.addrs = sp.WalkAddrsInto(ws.VPN, wk.buf[:0])
		if !ws.Finished {
			if ws.Level < 1 || ws.Level > len(wk.addrs) {
				return dst, fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) is at level %d of %d", ws.ASID, ws.VPN, ws.Level, len(wk.addrs))
			}
			h := HeldWalk{Origin: wk.origin, ASID: ws.ASID, VPN: ws.VPN}
			if err := resolveHeld(wi, w, &h, ws.Tr); err != nil {
				return dst, err
			}
			wk.tr = h.Tr
		}
		dst = append(dst, wk)
	}
	return dst, nil
}

// --- fault unit -------------------------------------------------------------

// FaultNotifyState is one held walk in serialized form; its page is the
// fault's.
type FaultNotifyState struct {
	Start  int64
	Origin uint8
	AppID  int
	// Tr names the TransReq of an OriginTrans walk by its tracker key.
	Tr memreq.TransKey
}

// PendingFaultState is one in-flight or queued page fault.
type PendingFaultState struct {
	ASID   uint8
	VPN    uint64
	Start  int64
	DoneAt int64
	Notify []FaultNotifyState
}

// FaultUnitState is the fault unit's checkpoint image.
type FaultUnitState struct {
	Resident []memreq.PageKey
	Inflight []PendingFaultState
	Queue    []PendingFaultState
	Stats    FaultStats
}

// SnapshotState captures the fault unit's checkpoint image.
func (f *FaultUnit) SnapshotState() FaultUnitState {
	st := FaultUnitState{Stats: f.Stats}
	for key := range f.resident {
		st.Resident = append(st.Resident, memreq.PageKey{ASID: key.asid, VPN: key.vpn})
	}
	// The resident set is a map: write it in key order so equal states
	// encode equally.
	slices.SortFunc(st.Resident, memreq.PageKey.Compare)
	snap := func(p *pendingFault) PendingFaultState {
		ps := PendingFaultState{ASID: p.key.asid, VPN: p.key.vpn, Start: p.start, DoneAt: p.doneAt}
		for _, h := range p.notify {
			ns := FaultNotifyState{Start: h.Start, Origin: uint8(h.Origin), AppID: h.AppID}
			if h.Tr != nil {
				ns.Tr = h.Tr.Key()
			}
			ps.Notify = append(ps.Notify, ns)
		}
		return ps
	}
	for _, p := range f.inflight {
		st.Inflight = append(st.Inflight, snap(p))
	}
	for _, p := range f.queue {
		st.Queue = append(st.Queue, snap(p))
	}
	return st
}

// RestoreState restores an image captured by SnapshotState onto a fault unit
// attached to a walker; the TLBs restore first, so every held walk's
// continuation resolves.
func (f *FaultUnit) RestoreState(wi *memreq.Wiring, st FaultUnitState) error {
	f.Stats = st.Stats
	f.resident = make(map[faultKey]bool, len(st.Resident))
	for _, k := range st.Resident {
		f.resident[faultKey{asid: k.ASID, vpn: k.VPN}] = true
	}
	build := func(dst []*pendingFault, sts []PendingFaultState) ([]*pendingFault, error) {
		for _, ps := range sts {
			p := &pendingFault{key: faultKey{asid: ps.ASID, vpn: ps.VPN}, start: ps.Start, doneAt: ps.DoneAt}
			for _, ns := range ps.Notify {
				h := HeldWalk{
					Start: ns.Start, Origin: WalkOrigin(ns.Origin), AppID: ns.AppID,
					ASID: ps.ASID, VPN: ps.VPN,
				}
				if err := resolveHeld(wi, f.sink, &h, ns.Tr); err != nil {
					return dst, err
				}
				p.notify = append(p.notify, h)
			}
			dst = append(dst, p)
		}
		return dst, nil
	}
	var err error
	if f.inflight, err = build(f.inflight[:0], st.Inflight); err != nil {
		return err
	}
	f.queue, err = build(f.queue[:0], st.Queue)
	return err
}
