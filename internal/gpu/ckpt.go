package gpu

import (
	"fmt"

	"masksim/internal/memreq"
	"masksim/internal/workload"
)

// WarpState is the serializable image of one warp.
type WarpState struct {
	State           uint8
	ComputeLeft     int
	PendingTrans    int
	OutstandingData int
	IssuedAt        int64
	TransDoneAt     int64
	Stream          workload.StreamState
}

// CtxState is the serializable image of one in-flight translation context: a
// warp waiting on the L1 TLB for the page holding Lines[0]. Contexts are
// stored in creation order so restore rebuilds each MSHR's waiting list in
// the order the callbacks were registered.
type CtxState struct {
	WarpID  int
	Lines   []uint64
	IsWrite bool
}

// CoreState is the core's checkpoint image.
type CoreState struct {
	Current    int
	ReadyCount int // informational: restore rebuilds the ready set from Warps
	WaitTrans  int
	WaitData   int
	Stats      Stats
	Warps      []WarpState
	Ctxs       []CtxState
	CtxFree    int
	Retry      []int32
}

// SnapshotState implements engine.Snapshotter; ctx is the *memreq.Table
// registry.
func (c *Core) SnapshotState(ctx any) (any, error) {
	tab, ok := ctx.(*memreq.Table)
	if !ok {
		return nil, fmt.Errorf("gpu: snapshot context is %T, want *memreq.Table", ctx)
	}
	st := CoreState{
		Current:    c.current,
		ReadyCount: c.ReadyWarps(),
		WaitTrans:  c.waitTrans,
		WaitData:   c.waitData,
		Stats:      c.Stats,
		CtxFree:    c.ctxFree.Len(),
	}
	st.Warps = make([]WarpState, len(c.warps))
	for i := range c.warps {
		w := &c.warps[i]
		st.Warps[i] = WarpState{
			State:           uint8(w.state),
			ComputeLeft:     w.computeLeft,
			PendingTrans:    w.pendingTrans,
			OutstandingData: w.outstandingData,
			IssuedAt:        w.issuedAt,
			TransDoneAt:     w.transDoneAt,
			Stream:          w.stream.State(),
		}
	}
	for ctx := c.liveHead; ctx != nil; ctx = ctx.next {
		st.Ctxs = append(st.Ctxs, CtxState{
			WarpID:  ctx.w.id,
			Lines:   append([]uint64(nil), ctx.lines...),
			IsWrite: ctx.isWrite,
		})
	}
	for _, r := range c.retry {
		st.Retry = append(st.Retry, tab.Req(r))
	}
	return st, nil
}

// RestoreState implements engine.Snapshotter; ctx is the *memreq.RestoreTable.
// Live translation contexts are rebuilt here but re-registered with the L1
// TLB only in ReattachWaiters, which the simulator calls after every
// component has restored (the TLB rebuilds its MSHR table after the cores
// run).
func (c *Core) RestoreState(ctx any, state any) error {
	rt, ok := ctx.(*memreq.RestoreTable)
	if !ok {
		return fmt.Errorf("gpu: restore context is %T, want *memreq.RestoreTable", ctx)
	}
	st, ok := state.(CoreState)
	if !ok {
		return fmt.Errorf("gpu: restore state is %T, want CoreState", state)
	}
	if len(st.Warps) != len(c.warps) {
		return fmt.Errorf("gpu: checkpoint has %d warps, core %d has %d", len(st.Warps), c.id, len(c.warps))
	}
	if st.Current < 0 || st.Current >= len(c.warps) {
		return fmt.Errorf("gpu: checkpoint names current warp %d of %d", st.Current, len(c.warps))
	}
	c.current = st.Current
	c.waitTrans = st.WaitTrans
	c.waitData = st.WaitData
	c.Stats = st.Stats
	for i := range c.warps {
		w := &c.warps[i]
		ws := st.Warps[i]
		w.state = warpState(ws.State)
		w.computeLeft = ws.ComputeLeft
		w.pendingTrans = ws.PendingTrans
		w.outstandingData = ws.OutstandingData
		w.issuedAt = ws.IssuedAt
		w.transDoneAt = ws.TransDoneAt
		w.stream.SetState(ws.Stream)
	}
	c.rebuildReady()
	for _, cs := range st.Ctxs {
		if cs.WarpID < 0 || cs.WarpID >= len(c.warps) {
			return fmt.Errorf("gpu: checkpoint context names warp %d of %d", cs.WarpID, len(c.warps))
		}
		tc := c.getCtx() // links into the live list in creation order
		tc.w = &c.warps[cs.WarpID]
		tc.lines = append([]uint64(nil), cs.Lines...)
		tc.isWrite = cs.IsWrite
	}
	c.ctxFree.Refill(st.CtxFree)
	c.retry = c.retry[:0]
	for _, ref := range st.Retry {
		c.retry = append(c.retry, rt.Req(ref))
	}
	return nil
}

// SetWaiterAttach installs the callback ReattachWaiters uses to re-register a
// live translation context with the L1 TLB MSHR covering vpn. The simulator
// wires it to tlb.L1TLB.AddWaiter (no-op under the Ideal design, which never
// has live contexts at a cycle boundary).
func (c *Core) SetWaiterAttach(fn func(vpn uint64, done func(now int64, frame uint64))) {
	c.attachWaiter = fn
}

// ReattachWaiters re-registers every restored live translation context with
// the L1 TLB, in creation order (which per-MSHR equals the original waiting
// order). Called by the simulator after all components have restored.
func (c *Core) ReattachWaiters() error {
	for ctx := c.liveHead; ctx != nil; ctx = ctx.next {
		if c.attachWaiter == nil {
			return fmt.Errorf("gpu: core %d has live translation contexts but no waiter attach hook", c.id)
		}
		c.attachWaiter(ctx.lines[0]>>c.cfg.PageShift, ctx.done)
	}
	return nil
}

// DataDone exposes the core's data-return callback for the simulator's
// checkpoint link pass (rebinding memreq.SiteCoreData requests; the
// request's WarpID must name one of the core's warps).
func (c *Core) DataDone() func(now int64, r *memreq.Request) { return c.dataDone }

// Stream exposes a warp's stream so the simulator can enumerate shared
// group-sync objects during checkpointing.
func (c *Core) Stream(warpID int) *workload.Stream {
	return c.warps[warpID].stream
}
