package memreq

import (
	"fmt"

	"masksim/internal/slab"
)

// Checkpoint support: serializable forms of the request types and the
// registry that lets many components reference the same in-flight request by
// index instead of by pointer.
//
// A live Request is owned by exactly one container (bank queue, MSHR waiting
// list, retry list, DRAM queue), but a live TransReq is referenced from
// several places at once (its L1 MSHR tracker plus wherever it currently
// queues). Both are therefore snapshotted through a registry: during
// Snapshot every component converts its pointers to table indices; during
// Restore the table materializes every object first (from the simulator's
// pools, return route included) and components then resolve indices back to
// the one shared object.

// Wiring is the fixed layout of one simulator that a checkpoint names things
// by: request pools by Pool.ID, request sinks by engine registration index
// (nil for tickers that are not sinks), translation sinks (the L1 TLBs) by
// core.
type Wiring struct {
	Pools      []*Pool
	TransPools []*TransPool
	Sinks      []Sink
	TransSinks []TransSink
}

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
	// Sink is the index in Wiring.Sinks of the component the request
	// returns to (NilRef: none); Tag is that component's continuation detail.
	Sink int32
	Tag  uint64
	// PoolID names the free list the live request came from (Pool.ID), so
	// restore materializes it from the matching pool. The pool layout is
	// fixed (one shared pool plus one per core), and the recycling partitions
	// must survive a checkpoint unchanged for the resumed run to stay
	// bit-identical.
	PoolID int
}

// TransReqDTO is the serializable image of one live TransReq. It needs no
// sink field: every live one returns to the L1 TLB of CoreID.
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
	sinkIdx map[Sink]int32
	// lastSink/lastIdx remember the previous lookup: a container's requests
	// mostly return to one sink, so most lookups skip the map.
	lastSink Sink
	lastIdx  int32

	reqIdx   map[*Request]int32
	reqs     []RequestDTO
	transIdx map[*TransReq]int32
	trans    []TransReqDTO
}

// NewTable returns an empty registry that records each request's Ret as its
// index in sinks (Wiring.Sinks).
func NewTable(sinks []Sink) *Table {
	t := &Table{
		sinkIdx:  make(map[Sink]int32, len(sinks)),
		reqIdx:   make(map[*Request]int32),
		transIdx: make(map[*TransReq]int32),
	}
	for i, s := range sinks {
		if s != nil {
			t.sinkIdx[s] = int32(i)
		}
	}
	return t
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
	sink := NilRef
	if r.Ret != nil {
		if r.Ret != t.lastSink {
			idx, ok := t.sinkIdx[r.Ret]
			if !ok {
				panic(fmt.Sprintf("memreq: request %d returns to a %T that is not a registered sink", r.ID, r.Ret))
			}
			t.lastSink, t.lastIdx = r.Ret, idx
		}
		sink = t.lastIdx
	}
	t.reqs = append(t.reqs, RequestDTO{
		ID: r.ID, AppID: r.AppID, ASID: r.ASID, CoreID: r.CoreID, WarpID: r.WarpID,
		Kind: r.Kind, Class: r.Class, WalkLevel: r.WalkLevel,
		Addr: r.Addr, Issue: r.Issue, Served: r.Served,
		Sink: sink, Tag: r.Tag, PoolID: poolID,
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

// RestoreTable materializes every registered request from the wiring's pools
// at construction, return route included; components then resolve their
// serialized indices through it.
type RestoreTable struct {
	reqs  []*Request
	trans []*TransReq
	sinks []Sink
	// bySink groups the requests by the sink they return to, so each sink's
	// RestoreState can check that it holds the state they resume.
	bySink [][]*Request
	err    error
}

// NewRestoreTable allocates one live object per DTO from the pool carrying
// its recorded PoolID, copies the serialized fields in and resolves its sink.
// A DTO naming a pool, sink or core the wiring does not have is an error
// (corrupt or incompatible checkpoint).
func NewRestoreTable(reqs []RequestDTO, trans []TransReqDTO, w Wiring) (*RestoreTable, error) {
	t := &RestoreTable{
		reqs:   make([]*Request, len(reqs)),
		trans:  make([]*TransReq, len(trans)),
		sinks:  w.Sinks,
		bySink: make([][]*Request, len(w.Sinks)),
	}
	for i, d := range reqs {
		if d.PoolID < 0 || d.PoolID >= len(w.Pools) {
			return nil, fmt.Errorf("memreq: request %d names pool %d of %d", i, d.PoolID, len(w.Pools))
		}
		if d.Sink != NilRef && (d.Sink < 0 || int(d.Sink) >= len(w.Sinks) || w.Sinks[d.Sink] == nil) {
			return nil, fmt.Errorf("memreq: request %d returns to ticker %d, which is not a sink", i, d.Sink)
		}
		r := w.Pools[d.PoolID].Get()
		r.ID, r.AppID, r.ASID, r.CoreID, r.WarpID = d.ID, d.AppID, d.ASID, d.CoreID, d.WarpID
		r.Kind, r.Class, r.WalkLevel = d.Kind, d.Class, d.WalkLevel
		r.Addr, r.Issue, r.Served, r.Tag = d.Addr, d.Issue, d.Served, d.Tag
		if d.Sink != NilRef {
			r.Ret = w.Sinks[d.Sink]
			t.bySink[d.Sink] = append(t.bySink[d.Sink], r)
		}
		t.reqs[i] = r
	}
	for i, d := range trans {
		if d.PoolID < 0 || d.PoolID >= len(w.TransPools) {
			return nil, fmt.Errorf("memreq: transreq %d names pool %d of %d", i, d.PoolID, len(w.TransPools))
		}
		if d.CoreID < 0 || d.CoreID >= len(w.TransSinks) {
			return nil, fmt.Errorf("memreq: transreq %d names the L1 TLB of core %d of %d", i, d.CoreID, len(w.TransSinks))
		}
		tr := w.TransPools[d.PoolID].Get()
		tr.AppID, tr.ASID, tr.CoreID, tr.WarpID = d.AppID, d.ASID, d.CoreID, d.WarpID
		tr.VPN, tr.HasToken, tr.Issue, tr.StalledWarps = d.VPN, d.HasToken, d.Issue, d.StalledWarps
		tr.Ret = w.TransSinks[d.CoreID]
		t.trans[i] = tr
	}
	return t, nil
}

// badRef records the first reference outside the registry; Err surfaces it
// once every component has resolved its references.
func (t *RestoreTable) badRef(i int32, n int) {
	if t.err == nil {
		t.err = fmt.Errorf("memreq: checkpoint reference %d outside %d live requests", i, n)
	}
}

// Req resolves a serialized index to its materialized Request (nil for
// NilRef, and for an index outside the registry, which Err then reports).
func (t *RestoreTable) Req(i int32) *Request {
	if i < 0 || int(i) >= len(t.reqs) {
		if i != NilRef {
			t.badRef(i, len(t.reqs))
		}
		return nil
	}
	return t.reqs[i]
}

// Trans resolves a serialized index to its materialized TransReq (see Req).
func (t *RestoreTable) Trans(i int32) *TransReq {
	if i < 0 || int(i) >= len(t.trans) {
		if i != NilRef {
			t.badRef(i, len(t.trans))
		}
		return nil
	}
	return t.trans[i]
}

// Err reports the first out-of-range reference any component resolved. The
// envelope checksum vouches for the bytes, not for the state they encode, so
// the simulator checks it after the components have restored.
func (t *RestoreTable) Err() error { return t.err }

// Returning lists the materialized requests whose Ret is s.
func (t *RestoreTable) Returning(s Sink) []*Request {
	for i, have := range t.sinks {
		if have == s {
			return t.bySink[i]
		}
	}
	return nil
}

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
