package memreq

import (
	"fmt"

	"masksim/internal/slab"
)

// Checkpoint support: serializable forms of the request types and the
// two-phase registry that lets many components reference the same in-flight
// request by index instead of by pointer.
//
// A live Request is owned by exactly one container (bank queue, MSHR waiting
// list, retry list, DRAM queue), but a live TransReq is referenced from
// several places at once (its L1 MSHR tracker plus wherever it currently
// queues). Both are therefore snapshotted through a registry: during
// Snapshot every component converts its pointers to table indices; during
// Restore the table materializes every object first (from the simulator's
// pools) and components then resolve indices back to the one shared object.
// Done callbacks are rebound afterwards from the Site/SiteRef descriptor in
// a final link pass driven by the simulator.

// Site identifies the kind of component a Request's Done callback belongs
// to. Stamped at Done-bind time, used only by checkpoint restore.
type Site uint8

const (
	// SiteNone: the request has no Done callback (fire-and-forget writes,
	// writebacks, write-allocate fills, write-through forwards).
	SiteNone Site = iota
	// SiteCoreData: Done is a core warp's data-return callback; CoreID and
	// WarpID on the request identify it.
	SiteCoreData
	// SiteCacheFill: Done is a cache MSHR's fill callback; SiteRef is the
	// cache's snapshot ID and Addr names the line.
	SiteCacheFill
	// SiteCacheBypassFill: like SiteCacheFill but for the cache's bypass
	// MSHR set.
	SiteCacheBypassFill
	// SiteWalk: Done is a page-table walk's step callback; SiteRef is the
	// walk's serial number.
	SiteWalk
)

// RequestDTO is the serializable image of one live Request.
type RequestDTO struct {
	ID        uint64
	AppID     int
	ASID      uint8
	CoreID    int
	WarpID    int
	Kind      Kind
	Class     Class
	WalkLevel uint8
	Addr      uint64
	Issue     int64
	Served    Service
	Site      Site
	SiteRef   uint64
	// PoolID names the free list the live request came from (Pool.ID), so
	// restore materializes it from the matching pool. The pool layout is
	// fixed (one shared pool plus one per core), and the recycling partitions
	// must survive a checkpoint unchanged for the resumed run to stay
	// bit-identical.
	PoolID int
}

// TransReqDTO is the serializable image of one live TransReq. TransReqs
// need no Site: every live one's Done is its owning L1 TLB MSHR's fill,
// identified by (CoreID, VPN).
type TransReqDTO struct {
	AppID        int
	ASID         uint8
	CoreID       int
	WarpID       int
	VPN          uint64
	HasToken     bool
	Issue        int64
	StalledWarps int
	// PoolID names the owning TransPool (see RequestDTO.PoolID).
	PoolID int
}

// NilRef is the table index encoding a nil pointer.
const NilRef int32 = -1

// Table assigns stable indices to the live requests encountered while
// snapshotting. Components call Req/Trans for every pointer they serialize;
// the first call for a pointer registers it.
type Table struct {
	reqIdx   map[*Request]int32
	reqs     []RequestDTO
	transIdx map[*TransReq]int32
	trans    []TransReqDTO
}

// NewTable returns an empty registry.
func NewTable() *Table {
	return &Table{
		reqIdx:   make(map[*Request]int32),
		transIdx: make(map[*TransReq]int32),
	}
}

// Req registers r (idempotently) and returns its index; NilRef for nil.
func (t *Table) Req(r *Request) int32 {
	if r == nil {
		return NilRef
	}
	if i, ok := t.reqIdx[r]; ok {
		return i
	}
	i := int32(len(t.reqs))
	t.reqIdx[r] = i
	poolID := 0
	if r.pool != nil {
		poolID = r.pool.ID
	}
	t.reqs = append(t.reqs, RequestDTO{
		ID: r.ID, AppID: r.AppID, ASID: r.ASID, CoreID: r.CoreID, WarpID: r.WarpID,
		Kind: r.Kind, Class: r.Class, WalkLevel: r.WalkLevel,
		Addr: r.Addr, Issue: r.Issue, Served: r.Served,
		Site: r.Site, SiteRef: r.SiteRef, PoolID: poolID,
	})
	return i
}

// Trans registers tr (idempotently) and returns its index; NilRef for nil.
func (t *Table) Trans(tr *TransReq) int32 {
	if tr == nil {
		return NilRef
	}
	if i, ok := t.transIdx[tr]; ok {
		return i
	}
	i := int32(len(t.trans))
	t.transIdx[tr] = i
	poolID := 0
	if tr.pool != nil {
		poolID = tr.pool.ID
	}
	t.trans = append(t.trans, TransReqDTO{
		AppID: tr.AppID, ASID: tr.ASID, CoreID: tr.CoreID, WarpID: tr.WarpID,
		VPN: tr.VPN, HasToken: tr.HasToken, Issue: tr.Issue,
		StalledWarps: tr.StalledWarps, PoolID: poolID,
	})
	return i
}

// Requests returns the registered Request DTOs in index order.
func (t *Table) Requests() []RequestDTO { return t.reqs }

// TransReqs returns the registered TransReq DTOs in index order.
func (t *Table) TransReqs() []TransReqDTO { return t.trans }

// RestoreTable materializes every registered request from the given pools at
// construction; components then resolve their serialized indices through it.
// Done callbacks are NOT set here — the simulator's link pass binds them
// from the Site descriptors once every component's trackers exist.
type RestoreTable struct {
	reqs  []*Request
	trans []*TransReq
}

// NewRestoreTable allocates one live object per DTO from the pool carrying
// its recorded PoolID and copies the serialized fields in. pools and tpools
// are indexed by Pool.ID/TransPool.ID; a DTO naming a pool outside either
// list is an error (corrupt or incompatible checkpoint).
func NewRestoreTable(reqs []RequestDTO, trans []TransReqDTO, pools []*Pool, tpools []*TransPool) (*RestoreTable, error) {
	t := &RestoreTable{
		reqs:  make([]*Request, len(reqs)),
		trans: make([]*TransReq, len(trans)),
	}
	for i, d := range reqs {
		if d.PoolID < 0 || d.PoolID >= len(pools) {
			return nil, fmt.Errorf("memreq: request %d names pool %d of %d", i, d.PoolID, len(pools))
		}
		r := pools[d.PoolID].Get()
		r.ID, r.AppID, r.ASID, r.CoreID, r.WarpID = d.ID, d.AppID, d.ASID, d.CoreID, d.WarpID
		r.Kind, r.Class, r.WalkLevel = d.Kind, d.Class, d.WalkLevel
		r.Addr, r.Issue, r.Served = d.Addr, d.Issue, d.Served
		r.Site, r.SiteRef = d.Site, d.SiteRef
		t.reqs[i] = r
	}
	for i, d := range trans {
		if d.PoolID < 0 || d.PoolID >= len(tpools) {
			return nil, fmt.Errorf("memreq: transreq %d names pool %d of %d", i, d.PoolID, len(tpools))
		}
		tr := tpools[d.PoolID].Get()
		tr.AppID, tr.ASID, tr.CoreID, tr.WarpID = d.AppID, d.ASID, d.CoreID, d.WarpID
		tr.VPN, tr.HasToken, tr.Issue, tr.StalledWarps = d.VPN, d.HasToken, d.Issue, d.StalledWarps
		t.trans[i] = tr
	}
	return t, nil
}

// Req resolves a serialized index to its materialized Request (nil for
// NilRef).
func (t *RestoreTable) Req(i int32) *Request {
	if i == NilRef {
		return nil
	}
	return t.reqs[i]
}

// Trans resolves a serialized index to its materialized TransReq.
func (t *RestoreTable) Trans(i int32) *TransReq {
	if i == NilRef {
		return nil
	}
	return t.trans[i]
}

// Len returns the materialized request counts (requests, transreqs).
func (t *RestoreTable) Len() (int, int) { return len(t.reqs), len(t.trans) }

// State returns the generator's counter for checkpointing.
func (g *IDGen) State() uint64 { return g.next }

// SetState restores the generator's counter.
func (g *IDGen) SetState(next uint64) { g.next = next }

// PoolState is the serializable image of a request pool: only the free-list
// length and the cumulative counters matter — free objects are
// interchangeable zeroed memory, so restore tops the list up through
// slab.List.Refill.
type PoolState struct {
	Free   int
	Allocs uint64
	Gets   uint64
}

func poolState[T any](l *slab.List[T]) PoolState {
	return PoolState{Free: l.Len(), Allocs: l.Allocs, Gets: l.Gets}
}

// restorePool applies a pool image: the free list is topped up to the
// recorded length and the counters are overwritten. Called after any
// RestoreTable materialization so the counters reflect the checkpointed run.
// An image no run can produce — more free objects than were ever created,
// more created than handed out — is rejected: the envelope checksum vouches
// for the bytes, not for the state they encode.
func restorePool[T any](l *slab.List[T], id int, st PoolState) error {
	if st.Free < 0 || uint64(st.Free) > st.Allocs || st.Allocs > st.Gets {
		return fmt.Errorf("memreq: checkpoint pool %d has Free=%d Allocs=%d Gets=%d", id, st.Free, st.Allocs, st.Gets)
	}
	l.Refill(st.Free)
	l.Allocs, l.Gets = st.Allocs, st.Gets
	return nil
}

// State captures the pool's checkpoint image.
func (p *Pool) State() PoolState { return poolState(&p.free) }

// SetState restores the pool image (see restorePool).
func (p *Pool) SetState(st PoolState) error { return restorePool(&p.free, p.ID, st) }

// State captures the pool's checkpoint image.
func (p *TransPool) State() PoolState { return poolState(&p.free) }

// SetState restores the pool image (see restorePool).
func (p *TransPool) SetState(st PoolState) error { return restorePool(&p.free, p.ID, st) }
