package memreq

import (
	"cmp"
	"fmt"
	"slices"
)

// Checkpoint support. Every live Request has exactly one owner (a retry
// list, a bank queue, an MSHR's waiters, a DRAM queue), so that owner writes
// it inline as a RequestState and restores it in place. Every live TransReq
// has exactly one L1 TLB miss tracker, which writes it, and at most one other
// holder, which names it by its TransKey.

// Wiring is the fixed layout of one simulator that a checkpoint names things
// by: request sinks by engine registration index (nil for tickers that are
// not sinks), and live translations by TransKey. One Wiring serves one
// Checkpoint or one restore.
type Wiring struct {
	// Pool is the simulator's one request pool, which restore takes every
	// request from (restore only).
	Pool  *Pool
	Sinks []Sink
	// Trans resolves a key to the TransReq the restored L1 TLB of its core
	// tracks, once: every holder asks for the keys it holds (restore only).
	Trans func(TransKey) (*TransReq, error)

	// last is the index of the sink the previous Image looked up: a
	// container's requests mostly return to one sink.
	last int
	// bySink holds the requests restored so far by the sink they return to,
	// and closed the sinks whose Returning already ran.
	bySink [][]*Request
	closed []bool
}

// RequestState is the checkpoint image of one live, not yet served Request.
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
	// Sink is 1 + the index in Wiring.Sinks of the component the request
	// returns to, 0 for none; Tag is that component's continuation detail.
	Sink int32
	Tag  uint64
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
		Addr: r.Addr, Issue: r.Issue, Tag: r.Tag,
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

// Request takes a request from the pool and gives it st's fields, return
// route included. An image naming a sink the wiring does not have, or a sink
// whose Returning already ran, is an error.
func (w *Wiring) Request(st RequestState) (*Request, error) {
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
	r := w.Pool.Get()
	r.AppID, r.ASID, r.CoreID, r.WarpID = st.AppID, st.ASID, st.CoreID, st.WarpID
	r.Kind, r.Class, r.WalkLevel = st.Kind, st.Class, st.WalkLevel
	r.Addr, r.Issue = st.Addr, st.Issue
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
