package tlb

import (
	"masksim/internal/engine"
	"masksim/internal/memreq"
)

// Prefetcher is a correlation (Markov) shared-TLB prefetcher in the spirit
// of the inter-core cooperative TLB prefetchers the paper discusses as
// related work (§8.2, Bhattacharjee & Martonosi). The paper argues such
// prefetchers are "likely to be less effective for multiple concurrent
// GPGPU applications, for which translations are not shared between virtual
// address spaces" — this implementation exists so that claim can be tested
// against MASK on the same substrate (experiment ext-prefetch).
//
// Per address space it records miss-to-miss VPN transitions in a bounded
// correlation table; when the current miss has a recorded successor, that
// successor is predicted. A simple stride predictor would never lock on
// here: the shared TLB's demand stream interleaves many warps, but repeated
// page *sequences* (streams re-walked by lagging warps, popular hot-page
// chains) recur and are exactly what a correlation table captures.
type Prefetcher struct {
	// next maps (asid, vpn) -> most recently observed successor VPN.
	next map[memreq.PageKey]uint64
	// order is a FIFO of inserted keys used for bounded eviction (no cycles).
	order engine.Queue[memreq.PageKey]
	cap   int
	last  map[uint8]uint64

	Stats PrefetchStats
}

// PrefetchStats counts prefetcher activity and usefulness.
type PrefetchStats struct {
	Predictions uint64 // predictions produced
	Issued      uint64 // prefetch walks actually started
	Useful      uint64 // prefetched entries later hit by a demand probe
}

// Accuracy returns Useful/Issued.
func (s PrefetchStats) Accuracy() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful) / float64(s.Issued)
}

// prefetchTableCap bounds the correlation table (hardware-plausible size).
const prefetchTableCap = 1024

// NewPrefetcher returns an empty correlation predictor.
func NewPrefetcher() *Prefetcher {
	return &Prefetcher{
		next: make(map[memreq.PageKey]uint64, prefetchTableCap),
		cap:  prefetchTableCap,
		last: make(map[uint8]uint64),
	}
}

// Observe records a demand reference for (asid, vpn) and returns the
// predicted next VPN when the correlation table has one.
func (p *Prefetcher) Observe(asid uint8, vpn uint64) (uint64, bool) {
	if lastVPN, seen := p.last[asid]; seen && lastVPN != vpn {
		key := memreq.PageKey{ASID: asid, VPN: lastVPN}
		if _, exists := p.next[key]; !exists {
			if len(p.next) >= p.cap {
				victim, _ := p.order.Pop(0)
				delete(p.next, victim)
			}
			p.order.Push(0, key)
		}
		p.next[key] = vpn
	}
	p.last[asid] = vpn

	if pred, ok := p.next[memreq.PageKey{ASID: asid, VPN: vpn}]; ok && pred != vpn {
		p.Stats.Predictions++
		return pred, true
	}
	return 0, false
}
