package ptw

import (
	"fmt"

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

// SetDoneResolver installs the hook RestoreState uses to rebuild a walk's
// completion callback from its origin coordinates; the simulator wires it to
// the shared TLB's MSHR and prefetch lookups.
func (w *Walker) SetDoneResolver(fn func(origin WalkOrigin, asid uint8, appID int, vpn uint64) (func(now int64, frame uint64), error)) {
	w.resolveDone = fn
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
	w.bySerial = make(map[uint64]*walk, len(st.Active)+len(st.Pending))
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
	return nil
}

// buildWalk materializes one serialized walk, recomputing its page-table
// addresses and rebinding its completion continuation.
func (w *Walker) buildWalk(ws WalkState, rt *memreq.RestoreTable) (*walk, error) {
	sp, ok := w.spaces[ws.ASID]
	if !ok {
		return nil, fmt.Errorf("ptw: checkpoint walk for unregistered ASID %d", ws.ASID)
	}
	wk := w.getWalk()
	wk.asid, wk.appID, wk.vpn = ws.ASID, ws.AppID, ws.VPN
	wk.origin, wk.serial = WalkOrigin(ws.Origin), ws.Serial
	wk.level, wk.waiting, wk.finished, wk.start = ws.Level, ws.Waiting, ws.Finished, ws.Start
	wk.addrs = sp.WalkAddrsInto(ws.VPN, wk.buf[:0])
	w.bySerial[ws.Serial] = wk
	if ws.Finished {
		return wk, nil
	}
	wk.tr = rt.Trans(ws.Tr)
	if wk.tr == nil {
		if w.resolveDone == nil {
			return nil, fmt.Errorf("ptw: restore needs a done resolver for walk origin %d", ws.Origin)
		}
		done, err := w.resolveDone(wk.origin, ws.ASID, ws.AppID, ws.VPN)
		if err != nil {
			return nil, fmt.Errorf("ptw: relink walk (asid %d vpn %#x): %w", ws.ASID, ws.VPN, err)
		}
		wk.done = done
	}
	return wk, nil
}

// ReqDoneBySerial resolves a restored walk's per-level request completion
// handler; the simulator's link pass rebinds memreq.SiteWalk requests
// through it. Valid only after RestoreState.
func (w *Walker) ReqDoneBySerial(serial uint64) (func(now int64, r *memreq.Request), bool) {
	wk, ok := w.bySerial[serial]
	if !ok {
		return nil, false
	}
	return wk.reqDone, true
}

// --- fault unit -------------------------------------------------------------

// FaultKeyState identifies one (asid, vpn) page.
type FaultKeyState struct {
	ASID uint8
	VPN  uint64
}

// FaultNotifyState is one held walk continuation in serialized form.
type FaultNotifyState struct {
	Start  int64
	Origin uint8
	AppID  int
	ASID   uint8
	VPN    uint64
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
	snap := func(p *pendingFault) (PendingFaultState, error) {
		ps := PendingFaultState{ASID: p.key.asid, VPN: p.key.vpn, Start: p.start, DoneAt: p.doneAt}
		for _, n := range p.notify {
			// ASIDs are assigned from 1, so a zero ASID marks a continuation
			// registered through the metadata-less Touch entry point.
			if n.meta.ASID == 0 || (n.meta.Tr == nil && n.meta.Origin == OriginExternal) {
				return ps, fmt.Errorf("ptw: fault for (asid %d, vpn %#x) holds a continuation without relink metadata", p.key.asid, p.key.vpn)
			}
			ps.Notify = append(ps.Notify, FaultNotifyState{
				Start: n.meta.Start, Origin: uint8(n.meta.Origin), AppID: n.meta.AppID,
				ASID: n.meta.ASID, VPN: n.meta.VPN, Tr: tab.Trans(n.meta.Tr),
			})
		}
		return ps, nil
	}
	for _, p := range f.inflight {
		ps, err := snap(p)
		if err != nil {
			return nil, err
		}
		st.Inflight = append(st.Inflight, ps)
	}
	for _, p := range f.queue {
		ps, err := snap(p)
		if err != nil {
			return nil, err
		}
		st.Queue = append(st.Queue, ps)
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
	if f.walker == nil {
		return fmt.Errorf("ptw: fault unit restore requires an attached walker")
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
			meta := FaultMeta{
				Start: ns.Start, Origin: WalkOrigin(ns.Origin), AppID: ns.AppID,
				ASID: ns.ASID, VPN: ns.VPN, Tr: rt.Trans(ns.Tr),
			}
			fn, err := f.walker.faultContinuation(meta)
			if err != nil {
				return nil, err
			}
			p.notify = append(p.notify, faultNotify{fn: fn, meta: meta})
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

// faultContinuation rebuilds the held walk-completion closure a pendingFault
// carries, mirroring the capture in Walker.advance: the frame comes from the
// (deterministically rebuilt) page table, the continuation from the walk's
// origin coordinates.
func (w *Walker) faultContinuation(meta FaultMeta) (func(now int64), error) {
	sp, ok := w.spaces[meta.ASID]
	if !ok {
		return nil, fmt.Errorf("ptw: fault continuation for unregistered ASID %d", meta.ASID)
	}
	frame, ok := sp.TranslateVPN(meta.VPN)
	if !ok {
		return nil, fmt.Errorf("ptw: fault continuation for unmapped page (asid %d, vpn %#x)", meta.ASID, meta.VPN)
	}
	tr := meta.Tr
	var done func(now int64, frame uint64)
	if tr == nil {
		if w.resolveDone == nil {
			return nil, fmt.Errorf("ptw: restore needs a done resolver for fault origin %d", meta.Origin)
		}
		var err error
		done, err = w.resolveDone(meta.Origin, meta.ASID, meta.AppID, meta.VPN)
		if err != nil {
			return nil, fmt.Errorf("ptw: relink fault continuation (asid %d vpn %#x): %w", meta.ASID, meta.VPN, err)
		}
	}
	start := meta.Start
	return func(fnow int64) { w.finishWalk(fnow, start, frame, done, tr) }, nil
}
