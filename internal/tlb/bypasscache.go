package tlb

import (
	"masksim/internal/memreq"
	"masksim/internal/slab"
)

// bypassCache is MASK's TLB bypass cache (§5.2): a small (32-entry in the
// paper) fully-associative, LRU-replaced store for translations requested by
// warps that hold no TLB-Fill Token. It is probed in parallel with the
// shared L2 TLB, so a hit in either counts as an L2-level TLB hit.
type bypassCache struct {
	tab *assocLRU

	Accesses uint64
	Hits     uint64
}

func newBypassCache(size int) *bypassCache { return renewBypassCache(nil, size) }

// renewBypassCache is newBypassCache built in place over a donor.
func renewBypassCache(b *bypassCache, size int) *bypassCache {
	b, d := slab.Lift(b)
	b.tab = renewAssocLRU(d.tab, size)
	return b
}

func (b *bypassCache) probe(k memreq.PageKey) bool {
	b.Accesses++
	ok := b.tab.probe(k)
	if ok {
		b.Hits++
	}
	return ok
}

func (b *bypassCache) fill(k memreq.PageKey) { b.tab.fill(k) }

// hitRate returns the bypass cache hit rate (the paper reports 66.5% §7.2).
func (b *bypassCache) hitRate() float64 {
	if b.Accesses == 0 {
		return 0
	}
	return float64(b.Hits) / float64(b.Accesses)
}
