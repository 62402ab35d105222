package ptw

import (
	"cmp"
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
	ASID     uint8
	AppID    int
	VPN      uint64
	Origin   uint8
	Serial   uint64
	Tr       int32
	Level    int
	Waiting  bool
	Finished bool
	Start    int64
}

// WalkerState is the walker's checkpoint image.
type WalkerState struct {
	Active       []WalkState
	Pending      []WalkState
	WalkFree     int
	PerAppActive []int
	SerialSeq    uint64
	IDGen        uint64
	Stats        Stats
	LatHist      *metrics.HistogramState
}

// checkOrigin rejects a walk image whose origin is none of the three, or
// that carries a TransReq exactly when its origin says it should not.
func checkOrigin(origin WalkOrigin, tr *memreq.TransReq, asid uint8, vpn uint64) error {
	if origin < OriginL2Miss || origin > OriginTrans || (origin == OriginTrans) != (tr != nil) {
		return fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) has origin %d and TransReq %v", asid, vpn, origin, tr != nil)
	}
	return nil
}

// SnapshotState implements engine.Snapshotter; ctx is the *memreq.Table.
func (w *Walker) SnapshotState(ctx any) (any, error) {
	tab, ok := ctx.(*memreq.Table)
	if !ok {
		return nil, fmt.Errorf("ptw: snapshot context is %T, want *memreq.Table", ctx)
	}
	st := WalkerState{
		WalkFree:     w.walkFree.Len(),
		PerAppActive: append([]int(nil), w.perAppActive...),
		SerialSeq:    w.serialSeq,
		IDGen:        w.idgen.State(),
		Stats:        w.Stats,
	}
	snap := func(wk *walk) WalkState {
		ws := WalkState{
			ASID: wk.asid, AppID: wk.appID, VPN: wk.vpn,
			Origin: uint8(wk.origin), Serial: wk.serial,
			Tr: memreq.NilRef, Level: wk.level,
			Waiting: wk.waiting, Finished: wk.finished, Start: wk.start,
		}
		// A finished walk has already delivered its continuation (tr may
		// point at a recycled object); only live continuations serialize.
		if !wk.finished {
			ws.Tr = tab.Trans(wk.tr)
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
	return st, nil
}

// RestoreState implements engine.Snapshotter; ctx is the *memreq.RestoreTable.
func (w *Walker) RestoreState(ctx any, state any) error {
	rt, ok := ctx.(*memreq.RestoreTable)
	if !ok {
		return fmt.Errorf("ptw: restore context is %T, want *memreq.RestoreTable", ctx)
	}
	st, ok := state.(WalkerState)
	if !ok {
		return fmt.Errorf("ptw: restore state is %T, want WalkerState", state)
	}
	w.serialSeq = st.SerialSeq
	w.idgen.SetState(st.IDGen)
	w.Stats = st.Stats
	copy(w.perAppActive, st.PerAppActive)
	w.active = w.active[:0]
	for _, ws := range st.Active {
		wk, err := w.buildWalk(ws, rt)
		if err != nil {
			return err
		}
		w.active = append(w.active, wk)
	}
	w.pending = w.pending[:0]
	for _, ws := range st.Pending {
		wk, err := w.buildWalk(ws, rt)
		if err != nil {
			return err
		}
		w.pending = append(w.pending, wk)
	}
	w.walkFree.Refill(st.WalkFree)
	if st.LatHist != nil && w.latHist != nil {
		w.latHist.SetState(*st.LatHist)
	}
	for _, r := range rt.Returning(w) {
		if wk := w.walkBySerial(r.Tag); wk == nil || wk.finished || !wk.waiting {
			return fmt.Errorf("ptw: checkpoint request %d returns to walk %d, which awaits no read", r.ID, r.Tag)
		}
	}
	return nil
}

// buildWalk materializes one serialized walk, recomputing its page-table
// addresses.
func (w *Walker) buildWalk(ws WalkState, rt *memreq.RestoreTable) (*walk, error) {
	sp, ok := w.spaces[ws.ASID]
	if !ok {
		return nil, fmt.Errorf("ptw: checkpoint walk for unregistered ASID %d", ws.ASID)
	}
	wk, _ := w.walkFree.Get()
	wk.asid, wk.appID, wk.vpn = ws.ASID, ws.AppID, ws.VPN
	wk.origin, wk.serial = WalkOrigin(ws.Origin), ws.Serial
	wk.level, wk.waiting, wk.finished, wk.start = ws.Level, ws.Waiting, ws.Finished, ws.Start
	wk.addrs = sp.WalkAddrsInto(ws.VPN, wk.buf[:0])
	if ws.Finished {
		return wk, nil
	}
	if ws.Level < 1 || ws.Level > len(wk.addrs) {
		return nil, fmt.Errorf("ptw: checkpoint walk (asid %d, vpn %#x) is at level %d of %d", ws.ASID, ws.VPN, ws.Level, len(wk.addrs))
	}
	wk.tr = rt.Trans(ws.Tr)
	return wk, checkOrigin(wk.origin, wk.tr, ws.ASID, ws.VPN)
}

// --- fault unit -------------------------------------------------------------

// FaultKeyState identifies one (asid, vpn) page.
type FaultKeyState struct {
	ASID uint8
	VPN  uint64
}

// FaultNotifyState is one held walk in serialized form.
type FaultNotifyState struct {
	Start  int64
	Origin uint8
	AppID  int
	ASID   uint8
	VPN    uint64
	Frame  uint64
	Tr     int32
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
	Resident []FaultKeyState
	Inflight []PendingFaultState
	Queue    []PendingFaultState
	Stats    FaultStats
}

// SnapshotState implements engine.Snapshotter; ctx is the *memreq.Table.
func (f *FaultUnit) SnapshotState(ctx any) (any, error) {
	tab, ok := ctx.(*memreq.Table)
	if !ok {
		return nil, fmt.Errorf("ptw: snapshot context is %T, want *memreq.Table", ctx)
	}
	st := FaultUnitState{Stats: f.Stats}
	for key := range f.resident {
		st.Resident = append(st.Resident, FaultKeyState{ASID: key.asid, VPN: key.vpn})
	}
	// The resident set is a map: write it in key order so equal states
	// encode equally.
	slices.SortFunc(st.Resident, func(a, b FaultKeyState) int {
		if c := cmp.Compare(a.ASID, b.ASID); c != 0 {
			return c
		}
		return cmp.Compare(a.VPN, b.VPN)
	})
	snap := func(p *pendingFault) PendingFaultState {
		ps := PendingFaultState{ASID: p.key.asid, VPN: p.key.vpn, Start: p.start, DoneAt: p.doneAt}
		for _, h := range p.notify {
			ps.Notify = append(ps.Notify, FaultNotifyState{
				Start: h.Start, Origin: uint8(h.Origin), AppID: h.AppID,
				ASID: h.ASID, VPN: h.VPN, Frame: h.Frame, Tr: tab.Trans(h.Tr),
			})
		}
		return ps
	}
	for _, p := range f.inflight {
		st.Inflight = append(st.Inflight, snap(p))
	}
	for _, p := range f.queue {
		st.Queue = append(st.Queue, snap(p))
	}
	return st, nil
}

// RestoreState implements engine.Snapshotter; ctx is the *memreq.RestoreTable.
func (f *FaultUnit) RestoreState(ctx any, state any) error {
	rt, ok := ctx.(*memreq.RestoreTable)
	if !ok {
		return fmt.Errorf("ptw: restore context is %T, want *memreq.RestoreTable", ctx)
	}
	st, ok := state.(FaultUnitState)
	if !ok {
		return fmt.Errorf("ptw: restore state is %T, want FaultUnitState", state)
	}
	f.Stats = st.Stats
	f.resident = make(map[faultKey]bool, len(st.Resident))
	for _, k := range st.Resident {
		f.resident[faultKey{asid: k.ASID, vpn: k.VPN}] = true
	}
	build := func(ps PendingFaultState) (*pendingFault, error) {
		p := &pendingFault{
			key:   faultKey{asid: ps.ASID, vpn: ps.VPN},
			start: ps.Start, doneAt: ps.DoneAt,
		}
		for _, ns := range ps.Notify {
			h := HeldWalk{
				Start: ns.Start, Origin: WalkOrigin(ns.Origin), AppID: ns.AppID,
				ASID: ns.ASID, VPN: ns.VPN, Frame: ns.Frame, Tr: rt.Trans(ns.Tr),
			}
			if err := checkOrigin(h.Origin, h.Tr, h.ASID, h.VPN); err != nil {
				return nil, err
			}
			p.notify = append(p.notify, h)
		}
		return p, nil
	}
	f.inflight = f.inflight[:0]
	for _, ps := range st.Inflight {
		p, err := build(ps)
		if err != nil {
			return err
		}
		f.inflight = append(f.inflight, p)
	}
	f.queue = f.queue[:0]
	for _, ps := range st.Queue {
		p, err := build(ps)
		if err != nil {
			return err
		}
		f.queue = append(f.queue, p)
	}
	return nil
}
