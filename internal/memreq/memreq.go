// Package memreq defines the request types that flow through the simulated
// memory hierarchy.
//
// Two request families exist, mirroring the paper's taxonomy (§4.3):
//
//   - Request: a physical-address memory access serviced by the data caches
//     and DRAM. Data demand requests and the page-table-walker's dependent
//     accesses are both Requests; they are distinguished by Class and, for
//     translation requests, by WalkLevel (1 = page-table root .. 4 = leaf).
//     A simulator's one Pool recycles them and numbers the sinks they
//     return to.
//   - Trans: a virtual-page translation request serviced by the TLB
//     hierarchy (L1 TLB -> shared L2 TLB / page walk cache -> walker). It is
//     a plain value, not pooled, named by the L1 TLB miss it translates for
//     (TransKey), and returns to that miss (TransSink).
//
// MASK's mechanisms key off these distinctions: the L2 bypass decision uses
// Class and WalkLevel, and the DRAM scheduler routes Class Translation into
// the Golden Queue.
package memreq

// Kind is the access direction of a memory request.
type Kind uint8

// Access kinds.
const (
	Read Kind = iota
	Write
)

// String returns a short human-readable name.
func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Class partitions requests into the two traffic classes the paper's
// mechanisms differentiate.
type Class uint8

// Request classes.
const (
	// Data is a demand request issued on behalf of application loads/stores.
	Data Class = iota
	// Translation is a page-table-walk access issued by the walker.
	Translation
)

// String returns a short human-readable name.
func (c Class) String() string {
	if c == Translation {
		return "translation"
	}
	return "data"
}

// MaxWalkLevel is the deepest page-table level (4-level x86-64-style tables).
const MaxWalkLevel = 4

// Service identifies the hierarchy level that ultimately supplied a request.
type Service uint8

// Service points.
const (
	ServedNone Service = iota
	ServedL1
	ServedL2
	ServedDRAM
)

// lifeState tracks where a pooled request is in its single-owner lifecycle
// so that misuse (double completion, completing a recycled object) panics
// loudly instead of silently corrupting another in-flight request.
type lifeState uint8

const (
	// lifeLive is the zero value: the request is owned by exactly one
	// component and may be completed once.
	lifeLive lifeState = iota
	// lifeFree marks a request sitting in its pool's free list.
	lifeFree
)

// Sink is a component a completed Request returns to: a core (data reads),
// a cache (its own line fetches) or the page table walker (per-level reads).
// RequestDone runs exactly once per request, inside Pool.Complete, and finds
// the state it resumes from what the request carries — WarpID, Addr, Tag.
type Sink interface {
	RequestDone(now int64, r *Request)
}

// SinkFunc adapts a function to Sink for tests, which register it in a pool.
type SinkFunc func(now int64, r *Request)

// RequestDone implements Sink.
func (f SinkFunc) RequestDone(now int64, r *Request) { f(now, r) }

// Route names the sink a completed Request returns to: the number its pool
// registered the sink under (Pool.Register), or 0 for none. The simulator
// registers its sinks in build order, so a route means the same sink on every
// simulator of one configuration, and a checkpoint writes it as it is.
type Route uint16

// MaxRoute is the largest route: a pool registers at most this many sinks.
const MaxRoute = 1<<16 - 1

// Request is a physical-address access to the cache/DRAM hierarchy. It is
// plain data: a live request and its checkpoint image are the same value.
//
// A request carries its return route: Ret, if not 0, receives it exactly once
// from the component that completes it (a cache on a hit or fill, or DRAM).
// Writes may carry no route (fire-and-forget, e.g. write-through traffic and
// dirty evictions).
//
// Ownership: a Request has a single owner at every moment — the component
// currently responsible for advancing it (a bank queue, an MSHR waiting
// list, a retry list, a DRAM channel). Pool.Complete transfers ownership to
// the sink for the duration of RequestDone and then recycles the request; no
// component may retain a pointer to a request after its Complete returns.
type Request struct {
	AppID  int
	CoreID int
	WarpID int

	// Addr is the physical byte address.
	Addr uint64
	// Issue is the cycle the request entered the memory system (used for
	// latency accounting).
	Issue int64
	// Tag is Ret's own continuation detail: the walk serial for the walker,
	// the bypass-MSHR mark for a cache, unused by a core.
	Tag uint64

	Kind  Kind
	Class Class
	// WalkLevel is 0 for data requests and 1..4 for translation requests,
	// where 1 is the page-table root. The paper tags each memory request
	// with its page-walk depth (§5.3) so the L2 can bypass per level.
	WalkLevel uint8
	// Served records which level supplied the data; set as the request
	// completes.
	Served Service
	// Ret is where the completed request returns; with Tag it is the whole
	// route.
	Ret Route

	// life guards the single-Complete lifecycle.
	life lifeState
}

// TransSink is where a translation returns once its page is translated: the
// L1 TLB of its core, which closes the miss the key names.
type TransSink interface {
	TransDone(now int64, k TransKey)
}

// Trans is a virtual-page translation request flowing through the TLB
// hierarchy: a value each holder keeps its own copy of, one holder at a time.
// Core and VPN key the L1 TLB miss it translates for and returns to (Key);
// the other fields are fixed when that miss opens.
type Trans struct {
	// VPN is the virtual page number being translated.
	VPN   uint64
	AppID int
	Core  int32
	ASID  uint8
	// HasToken records whether the warp whose lookup opened the miss held a
	// TLB-Fill Token (§5.2); it controls whether the walker's result may
	// fill the shared L2 TLB or only the bypass cache.
	HasToken bool
}

// TransKey names a translation by its L1 TLB miss: the L1 TLB of core Core,
// entry VPN. A checkpoint names every translation by it.
type TransKey struct {
	Core int32
	VPN  uint64
}

// Key returns the key naming tr.
func (tr Trans) Key() TransKey { return TransKey{Core: tr.Core, VPN: tr.VPN} }
