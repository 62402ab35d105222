package gpu

import (
	"fmt"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/workload"
)

// WarpState is the serializable image of one warp: its scheduling state as
// it is, the memory instruction it waits on and its stream's cursor.
type WarpState struct {
	Warp
	// Pages and Write are the memory instruction a warp with PendingTrans > 0
	// is blocked on, one line list per page slot; the L1 TLB's miss images
	// name the slots still waiting. Empty once every page is translated.
	Pages  [][]uint64
	Write  bool
	Stream workload.StreamState
}

// CoreState is the core's checkpoint image.
type CoreState struct {
	Current int
	Stats   Stats
	Warps   []WarpState
	Retry   []engine.QueueItem[memreq.Request]
}

// SnapshotState captures the core's checkpoint image.
func (c *Core) SnapshotState() CoreState {
	st := CoreState{
		Current: c.current,
		Stats:   c.Stats,
		Retry:   engine.SnapshotQueue(&c.retry, (*memreq.Request).Image),
	}
	st.Warps = make([]WarpState, len(c.warps))
	for i := range c.warps {
		w := &c.warps[i]
		st.Warps[i] = WarpState{Warp: w.Warp, Stream: w.stream.State()}
		if w.PendingTrans > 0 {
			ws := &st.Warps[i]
			ws.Write = w.inst.Write
			for _, pg := range w.inst.Pages {
				ws.Pages = append(ws.Pages, append([]uint64(nil), pg.Lines...))
			}
		}
	}
	return st
}

// RestoreState restores an image captured by SnapshotState onto a core built
// from the identical configuration. The L1 data cache restores first, so
// every data read returning to the core is known by the end.
func (c *Core) RestoreState(wi *memreq.Wiring, st CoreState) error {
	if len(st.Warps) != len(c.warps) {
		return fmt.Errorf("gpu: checkpoint has %d warps, core %d has %d", len(st.Warps), c.id, len(c.warps))
	}
	if st.Current < 0 || st.Current >= len(c.warps) {
		return fmt.Errorf("gpu: checkpoint names current warp %d of %d", st.Current, len(c.warps))
	}
	c.current = st.Current
	c.Stats = st.Stats
	for i := range c.warps {
		w := &c.warps[i]
		ws := st.Warps[i]
		w.Warp = ws.Warp
		if err := w.stream.SetState(ws.Stream); err != nil {
			return fmt.Errorf("gpu: core %d warp %d: %w", c.id, i, err)
		}
		if ws.PendingTrans < 0 || ws.PendingTrans > len(ws.Pages) {
			return fmt.Errorf("gpu: checkpoint warp %d awaits %d translations of a %d-page instruction", i, ws.PendingTrans, len(ws.Pages))
		}
		w.inst = workload.MemInst{Write: ws.Write}
		for _, lines := range ws.Pages {
			if len(lines) == 0 {
				return fmt.Errorf("gpu: checkpoint warp %d has a page slot without lines", i)
			}
			if _, ok := c.space.TranslateVPN(c.space.VPN(lines[0])); !ok {
				return fmt.Errorf("gpu: checkpoint warp %d has a page slot on vpn %#x, which address space %d does not map", i, c.space.VPN(lines[0]), c.space.ASID())
			}
			w.inst.Pages = append(w.inst.Pages, workload.PageAccess{Lines: lines})
		}
	}
	c.rebuildReady()
	if err := engine.RestoreQueue(&c.retry, st.Retry, wi.Request); err != nil {
		return fmt.Errorf("gpu: core %d retry %w", c.id, err)
	}
	for _, r := range wi.Returning(c.route) {
		if r.WarpID < 0 || r.WarpID >= len(c.warps) {
			return fmt.Errorf("gpu: checkpoint request (addr %#x) returns to warp %d of %d", r.Addr, r.WarpID, len(c.warps))
		}
	}
	return nil
}

// Awaits implements tlb.Waker: whether page slot of warpID's memory
// instruction may still be waiting for the translation of vpn — the warp is
// blocked with translations pending, and the instruction has that slot, on
// that page.
func (c *Core) Awaits(warpID, slot int, vpn uint64) bool {
	if warpID < 0 || warpID >= len(c.warps) {
		return false
	}
	w := &c.warps[warpID]
	return w.Phase == warpWaitMem && w.PendingTrans > 0 && slot >= 0 && slot < len(w.inst.Pages) &&
		c.space.VPN(w.inst.Pages[slot].Lines[0]) == vpn
}

// Stream exposes a warp's stream so the simulator can enumerate shared
// group-sync objects during checkpointing.
func (c *Core) Stream(warpID int) *workload.Stream {
	return c.warps[warpID].stream
}
