package memreq

import "masksim/internal/slab"

// Pool is a deterministic free list of Requests owned by one simulator.
//
// The simulation hot loop creates a Request per memory access and per MSHR
// fill; without recycling those dominate the allocation profile (~550k
// objects per 6k-cycle run). A Pool turns that into a handful of warm-up
// allocations: Get hands out a zeroed request, and Complete returns it to
// the free list once its sink has run.
//
// Pools are intentionally NOT sync.Pool: the cycle loop is single-threaded
// per simulator, and a plain slab.List keeps recycling fully deterministic
// (the GC never steals entries, so object identity sequences — and therefore
// any accidental dependence on them — are identical run to run). A simulator
// owns one Pool, which every component that issues requests draws from; two
// simulators running concurrently never share request memory, which keeps
// runs race-free (see the sim package's concurrency test).
//
// The zero Pool is ready to use.
type Pool struct {
	// free recycles the requests. Its Allocs counts objects created because
	// the free list was empty and its Gets all handouts.
	free slab.List[Request]
}

// Get returns a live, zeroed Request owned by the caller. The request comes
// back to the pool automatically when its Complete runs.
func (p *Pool) Get() *Request {
	r, _ := p.free.Get()
	*r = Request{pool: p}
	return r
}

// put returns a completed request to the free list. Only Request.Complete
// calls it; the lifecycle state machine there guarantees a request is put at
// most once per Get.
func (p *Pool) put(r *Request) {
	r.life = lifeFree
	r.Ret = nil
	p.free.Put(r)
}

// Renew returns the pool to its initial state: every request it ever handed
// out is dead. It keeps what slab.List.Rewind keeps — a few small chunks and
// a free stack, not the hundreds of kilobytes of requests a busy pool grows
// to.
func (p *Pool) Renew() { p.free.Rewind(nil) }

// Live reports how many requests the pool created and does not hold free:
// every one some component holds, plus any a fault plan stranded.
func (p *Pool) Live() int { return int(p.free.Allocs) - p.free.Len() }

// TransPool is the Pool analogue for TransReqs, recycled by
// TransReq.Complete. The zero TransPool is ready to use.
type TransPool struct {
	free slab.List[TransReq]
}

// Get returns a live, zeroed TransReq owned by the caller.
func (p *TransPool) Get() *TransReq {
	tr, _ := p.free.Get()
	*tr = TransReq{pool: p}
	return tr
}

func (p *TransPool) put(tr *TransReq) {
	tr.life = lifeFree
	tr.Ret = nil
	p.free.Put(tr)
}

// Renew is Pool.Renew for a TransPool.
func (p *TransPool) Renew() { p.free.Rewind(nil) }

// Live is Pool.Live for a TransPool.
func (p *TransPool) Live() int { return int(p.free.Allocs) - p.free.Len() }
