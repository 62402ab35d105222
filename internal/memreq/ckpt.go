package memreq

import (
	"cmp"
	"fmt"
	"slices"
)

// Checkpoint support. Every live Request has exactly one owner (a retry
// list, a bank queue, an MSHR's waiters, a DRAM queue), so that owner writes
// it inline — a Request is its own image — and restores it in place. Every
// live translation has exactly one L1 TLB miss, which writes what the
// translation carries, and exactly one other holder, which names it by its
// TransKey.

// Wiring is what a restore resolves names against: the pool whose sink table
// the images' routes number, and live translations by TransKey. One Wiring
// serves one restore.
type Wiring struct {
	// Pool is the simulator's one request pool, which restore takes every
	// request from.
	Pool *Pool
	// Trans resolves a key to the translation of the restored L1 TLB miss
	// it names, once: every holder asks for the keys it holds.
	Trans func(TransKey) (Trans, error)
	// ASIDs holds each application's address space, indexed by AppID; Cores
	// and Warps are the simulator's core count and warps per core. Together
	// they bound every identity an image names (Request, Walk).
	ASIDs        []uint8
	Cores, Warps int
	// Now is the cycle the image was taken at, which the restored run
	// starts from: it bounds every cycle an image holds.
	Now int64

	// bySink holds the requests restored so far by the route they return on,
	// and closed the routes whose Returning already ran.
	bySink [][]*Request
	closed []bool
}

// PageKey names one page of one address space in a checkpoint image.
type PageKey struct {
	ASID uint8
	VPN  uint64
}

// Hash mixes the page number with the address space: the index of the
// TLBs' sets and hash buckets, and of the shared TLB's miss table.
func (k PageKey) Hash() uint64 { return (k.VPN ^ uint64(k.ASID)<<56) * 0x9E3779B97F4A7C15 }

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

// Image returns the request's image: the request is its own image.
func (r *Request) Image() Request { return *r }

// identity rejects an application, core or warp the simulator does not have:
// components index per-app, per-core and per-warp state by them.
func (w *Wiring) identity(app, core, warp int) error {
	if app < 0 || app >= len(w.ASIDs) || core < 0 || core >= w.Cores || warp < 0 || warp >= w.Warps {
		return fmt.Errorf("memreq: app %d, core %d, warp %d is not one of %d apps, %d cores of %d warps", app, core, warp, len(w.ASIDs), w.Cores, w.Warps)
	}
	return nil
}

// Walk rejects a walk whose application and address space do not name the
// same app.
func (w *Wiring) Walk(asid uint8, app int) error {
	if app < 0 || app >= len(w.ASIDs) || w.ASIDs[app] != asid {
		return fmt.Errorf("walk of app %d in address space %d, which names no app of %d", app, asid, len(w.ASIDs))
	}
	return nil
}

// Request takes a request from the pool and gives it the image's fields. An
// image of a kind, class or walk level no request has, of an identity the
// simulator does not have, or whose route names no sink or a sink whose
// Returning already ran, is an error.
func (w *Wiring) Request(img Request) (*Request, error) {
	if img.Kind > Write || img.Class > Translation || img.WalkLevel > MaxWalkLevel {
		return nil, fmt.Errorf("memreq: request (addr %#x, tag %d) has kind %d, class %d, walk level %d, which no request has", img.Addr, img.Tag, img.Kind, img.Class, img.WalkLevel)
	}
	if err := w.identity(img.AppID, img.CoreID, img.WarpID); err != nil {
		return nil, fmt.Errorf("request (addr %#x, tag %d): %w", img.Addr, img.Tag, err)
	}
	if img.Ret != 0 {
		if w.Pool.Sink(img.Ret) == nil {
			return nil, fmt.Errorf("memreq: request (addr %#x, tag %d) returns to sink %d, which is not a sink", img.Addr, img.Tag, img.Ret)
		}
		w.routes()
		if w.closed[img.Ret-1] {
			return nil, fmt.Errorf("memreq: request (addr %#x, tag %d) returns to sink %d, which restored before the component holding it", img.Addr, img.Tag, img.Ret)
		}
	}
	r := w.Pool.Get()
	img.life = lifeLive
	*r = img
	if r.Ret != 0 {
		w.bySink[r.Ret-1] = append(w.bySink[r.Ret-1], r)
	}
	return r, nil
}

// Returning lists the restored requests that return on rt. A sink calls it
// with its own route last in its own restore: the simulator restores every
// component that can hold a request before the sink it returns to, so the
// list is complete, and a request restored later on rt is rejected.
func (w *Wiring) Returning(rt Route) []*Request {
	if w.Pool.Sink(rt) == nil {
		return nil
	}
	w.routes()
	w.closed[rt-1] = true
	return w.bySink[rt-1]
}

// routes allocates the per-sink restore bookkeeping on first use.
func (w *Wiring) routes() {
	if w.bySink == nil {
		n := len(w.Pool.sinks)
		w.bySink, w.closed = make([][]*Request, n), make([]bool, n)
	}
}
