package memreq

import "masksim/internal/slab"

// Pool is a deterministic free list of Requests owned by one simulator, and
// the table of the sinks its requests return to.
//
// The simulation hot loop creates a Request per memory access and per MSHR
// fill; without recycling those dominate the allocation profile (~550k
// objects per 6k-cycle run). A Pool turns that into a handful of warm-up
// allocations: Get hands out a zeroed request, and Complete returns it to
// the free list once its sink has run. A request holds no pointer, so the
// chunks it is carved from are memory the collector does not scan.
//
// Pools are intentionally NOT sync.Pool: the cycle loop is single-threaded
// per simulator, and a plain slab.List keeps recycling fully deterministic
// (the GC never steals entries, so object identity sequences — and therefore
// any accidental dependence on them — are identical run to run). A simulator
// owns one Pool, which every component that issues or completes requests
// holds; two simulators running concurrently never share request memory,
// which keeps runs race-free (see the sim package's concurrency test).
//
// The zero Pool is ready to use.
type Pool struct {
	// free recycles the requests. Its Allocs counts objects created because
	// the free list was empty and its Gets all handouts.
	free slab.List[Request]
	// sinks[i] is the sink of Route i+1.
	sinks []Sink
}

// Register adds s to the sink table and returns the route that names it.
func (p *Pool) Register(s Sink) Route {
	if len(p.sinks) == MaxRoute {
		panic("memreq: more sinks than a Route can name")
	}
	p.sinks = append(p.sinks, s)
	return Route(len(p.sinks))
}

// Sink returns the sink rt names, nil for route 0 or a route no sink was
// registered under.
func (p *Pool) Sink(rt Route) Sink {
	if rt == 0 || int(rt) > len(p.sinks) {
		return nil
	}
	return p.sinks[rt-1]
}

// Get returns a live, zeroed Request owned by the caller. The request comes
// back to the pool when Complete runs on it.
func (p *Pool) Get() *Request {
	r := p.free.Get()
	*r = Request{}
	return r
}

// Complete marks r served at svc, delivers it to the sink of its route, and
// recycles it. The caller must not touch r after Complete returns.
// Completing a request twice, which is completing one that has already been
// recycled, panics.
func (p *Pool) Complete(r *Request, now int64, svc Service) {
	if r.life == lifeFree {
		panic("memreq: Complete on a recycled Request (use-after-done)")
	}
	r.life = lifeFree
	if r.Served == ServedNone {
		r.Served = svc
	}
	if r.Ret != 0 {
		p.sinks[r.Ret-1].RequestDone(now, r)
	}
	p.free.Put(r)
}

// Renew returns the pool to its initial state: every request it ever handed
// out is dead, and no sink is registered. It keeps what slab.List.Rewind
// keeps — a few small chunks and a free stack, not the hundreds of kilobytes
// of requests a busy pool grows to.
func (p *Pool) Renew() {
	p.free.Rewind()
	clear(p.sinks)
	p.sinks = p.sinks[:0]
}

// Live reports how many requests the pool created and does not hold free:
// every one some component holds, plus any a fault plan stranded.
func (p *Pool) Live() int { return int(p.free.Allocs) - p.free.Len() }
