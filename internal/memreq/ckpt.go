package memreq

import (
	"cmp"
	"fmt"
	"slices"

	"masksim/internal/slab"
)

// Checkpoint support. Every live Request has exactly one owner (a retry
// list, a bank queue, an MSHR's waiters, a DRAM queue), so that owner writes
// it inline as a RequestState and restores it in place. Every live TransReq
// has exactly one L1 TLB miss tracker, which writes it; every other holder
// names it by its TransKey.

// Wiring is the fixed layout of one simulator that a checkpoint names things
// by: request pools by Pool.ID, request sinks by engine registration index
// (nil for tickers that are not sinks), and live translations by TransKey.
// One Wiring serves one Checkpoint or one restore.
type Wiring struct {
	Pools []*Pool
	Sinks []Sink
	// Trans resolves a key to the TransReq the restored L1 TLB of its core
	// tracks (restore only).
	Trans func(TransKey) (*TransReq, error)

	// last is the index of the sink the previous Image looked up: a
	// container's requests mostly return to one sink.
	last int
	// bySink holds the requests restored so far by the sink they return to,
	// and closed the sinks whose Returning already ran.
	bySink [][]*Request
	closed []bool
}

// RequestState is the checkpoint image of one live Request.
type RequestState struct {
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
	// Sink is 1 + the index in Wiring.Sinks of the component the request
	// returns to, 0 for none; Tag is that component's continuation detail.
	Sink int32
	Tag  uint64
	// Pool names the free list the request came from (Pool.ID): the
	// recycling partitions must survive a checkpoint unchanged for the
	// resumed run to stay bit-identical.
	Pool int
}

// TransKey names a live TransReq by its one miss tracker: the L1 TLB of core
// Core, entry VPN.
type TransKey struct {
	Core int32
	VPN  uint64
}

// Key returns the key naming tr.
func (tr *TransReq) Key() TransKey { return TransKey{Core: int32(tr.CoreID), VPN: tr.VPN} }

// PageKey names one page of one address space in a checkpoint image.
type PageKey struct {
	ASID uint8
	VPN  uint64
}

// Compare orders page keys by address space, then page.
func (k PageKey) Compare(o PageKey) int {
	if c := cmp.Compare(k.ASID, o.ASID); c != 0 {
		return c
	}
	return cmp.Compare(k.VPN, o.VPN)
}

// SortedKeys returns m's keys in the given order: images write map-backed
// sets this way, so equal states encode equally.
func SortedKeys[K comparable, V any](m map[K]V, order func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, order)
	return keys
}

// Image returns r's checkpoint image. r must return nowhere or to one of the
// wiring's sinks.
func (w *Wiring) Image(r *Request) RequestState {
	st := RequestState{
		AppID: r.AppID, ASID: r.ASID, CoreID: r.CoreID, WarpID: r.WarpID,
		Kind: r.Kind, Class: r.Class, WalkLevel: r.WalkLevel,
		Addr: r.Addr, Issue: r.Issue, Served: r.Served, Tag: r.Tag,
	}
	if r.pool != nil {
		st.Pool = r.pool.ID
	}
	if r.Ret != nil {
		if w.last >= len(w.Sinks) || w.Sinks[w.last] != r.Ret {
			if w.last = slices.Index(w.Sinks, r.Ret); w.last < 0 {
				panic(fmt.Sprintf("memreq: request (addr %#x, tag %d) returns to a %T that is not a registered sink", r.Addr, r.Tag, r.Ret))
			}
		}
		st.Sink = int32(w.last) + 1
	}
	return st
}

// Images appends the images of rs to dst.
func (w *Wiring) Images(dst []RequestState, rs []*Request) []RequestState {
	for _, r := range rs {
		dst = append(dst, w.Image(r))
	}
	return dst
}

// Request takes a request from the pool st names and gives it st's fields,
// return route included. An image naming a pool or sink the wiring does not
// have, or a sink whose Returning already ran, is an error.
func (w *Wiring) Request(st RequestState) (*Request, error) {
	if st.Pool < 0 || st.Pool >= len(w.Pools) {
		return nil, fmt.Errorf("memreq: request (addr %#x, tag %d) names pool %d of %d", st.Addr, st.Tag, st.Pool, len(w.Pools))
	}
	var sink Sink
	i := int(st.Sink) - 1
	if st.Sink != 0 {
		if i < 0 || i >= len(w.Sinks) || w.Sinks[i] == nil {
			return nil, fmt.Errorf("memreq: request (addr %#x, tag %d) returns to ticker %d, which is not a sink", st.Addr, st.Tag, i)
		}
		w.routes()
		if w.closed[i] {
			return nil, fmt.Errorf("memreq: request (addr %#x, tag %d) returns to ticker %d, which restored before the component holding it", st.Addr, st.Tag, i)
		}
		sink = w.Sinks[i]
	}
	r := w.Pools[st.Pool].Get()
	r.AppID, r.ASID, r.CoreID, r.WarpID = st.AppID, st.ASID, st.CoreID, st.WarpID
	r.Kind, r.Class, r.WalkLevel = st.Kind, st.Class, st.WalkLevel
	r.Addr, r.Issue, r.Served = st.Addr, st.Issue, st.Served
	r.Ret, r.Tag = sink, st.Tag
	if sink != nil {
		w.bySink[i] = append(w.bySink[i], r)
	}
	return r, nil
}

// Requests appends the requests restored from sts to dst.
func (w *Wiring) Requests(dst []*Request, sts []RequestState) ([]*Request, error) {
	for _, st := range sts {
		r, err := w.Request(st)
		if err != nil {
			return dst, err
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// Returning lists the restored requests that return to s. A sink calls it
// last in its own restore: the simulator restores every component that can
// hold a request before the sink it returns to, so the list is complete, and
// a request restored later that names s is rejected.
func (w *Wiring) Returning(s Sink) []*Request {
	i := slices.Index(w.Sinks, s)
	if i < 0 {
		return nil
	}
	w.routes()
	w.closed[i] = true
	return w.bySink[i]
}

// routes allocates the per-sink restore bookkeeping on first use.
func (w *Wiring) routes() {
	if w.bySink == nil {
		w.bySink, w.closed = make([][]*Request, len(w.Sinks)), make([]bool, len(w.Sinks))
	}
}

// PoolState is the serializable image of a request pool: only the free-list
// length and the cumulative counters matter — free objects are
// interchangeable zeroed memory, so restore tops the list up through
// slab.List.Refill. Allocs - Free is the number of live requests.
type PoolState struct {
	Free   int
	Allocs uint64
	Gets   uint64
}

func poolState[T any](l *slab.List[T]) PoolState {
	return PoolState{Free: l.Len(), Allocs: l.Allocs, Gets: l.Gets}
}

// Outstanding returns how many objects the pool created and does not hold
// free, and whether the image is one a run can produce: no more free objects
// than were ever created, no more created than handed out.
func (st PoolState) Outstanding() (uint64, bool) {
	if st.Free < 0 || uint64(st.Free) > st.Allocs || st.Allocs > st.Gets {
		return 0, false
	}
	return st.Allocs - uint64(st.Free), true
}

// restorePool applies a pool image: the free list is topped up to the
// recorded length and the counters are overwritten. Called after every
// component restored its requests so the counters reflect the checkpointed
// run. An image no run can produce is rejected: the envelope checksum vouches
// for the bytes, not for the state they encode.
func restorePool[T any](l *slab.List[T], id int, st PoolState) error {
	if _, ok := st.Outstanding(); !ok {
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
