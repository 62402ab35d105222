// Package memreq defines the request types that flow through the simulated
// memory hierarchy.
//
// Two request families exist, mirroring the paper's taxonomy (§4.3):
//
//   - Request: a physical-address memory access serviced by the data caches
//     and DRAM. Data demand requests and the page-table-walker's dependent
//     accesses are both Requests; they are distinguished by Class and, for
//     translation requests, by WalkLevel (1 = page-table root .. 4 = leaf).
//   - TransReq: a virtual-page translation request serviced by the TLB
//     hierarchy (L1 TLB -> shared L2 TLB / page walk cache -> walker).
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

// lifeState tracks where a request is in its single-owner lifecycle so that
// misuse (double completion, completing a recycled object) panics loudly
// instead of silently corrupting another in-flight request.
type lifeState uint8

const (
	// lifeLive is the zero value: the request is owned by exactly one
	// component and may be completed once. Plain &Request{} literals (tests,
	// callers outside a pooled simulator) are born live.
	lifeLive lifeState = iota
	// lifeDone marks a non-pooled request whose Complete already ran.
	lifeDone
	// lifeFree marks a pooled request sitting in its pool's free list.
	lifeFree
)

// Sink is a component a completed Request returns to: a core (data reads),
// a cache (its own line fetches) or the page table walker (per-level reads).
// RequestDone runs exactly once per request, inside Complete, and finds the
// state it resumes from what the request carries — WarpID, Addr, Tag.
type Sink interface {
	RequestDone(now int64, r *Request)
}

// SinkFunc adapts a function to Sink for callers outside a wired simulator
// (tests observing a completion). It cannot be checkpointed.
type SinkFunc func(now int64, r *Request)

// RequestDone implements Sink.
func (f SinkFunc) RequestDone(now int64, r *Request) { f(now, r) }

// Request is a physical-address access to the cache/DRAM hierarchy.
//
// A request carries its return route: Ret, if non-nil, receives it exactly
// once from the component that completes it (a cache on a hit or fill, or
// DRAM). Writes may carry a nil Ret (fire-and-forget, e.g. write-through
// traffic and dirty evictions).
//
// Ownership: a Request has a single owner at every moment — the component
// currently responsible for advancing it (a bank queue, an MSHR waiting
// list, a retry list, a DRAM channel). Complete transfers ownership to Ret
// for the duration of RequestDone and then ends the lifecycle; no component
// may retain a pointer to a request after its Complete returns. That
// contract is what makes pooled recycling (Pool) sound.
type Request struct {
	AppID  int
	ASID   uint8
	CoreID int
	WarpID int

	Kind  Kind
	Class Class
	// WalkLevel is 0 for data requests and 1..4 for translation requests,
	// where 1 is the page-table root. The paper tags each memory request
	// with its page-walk depth (§5.3) so the L2 can bypass per level.
	WalkLevel uint8

	// Addr is the physical byte address.
	Addr uint64
	// Issue is the cycle the request entered the memory system (used for
	// latency accounting).
	Issue int64
	// Served records which level supplied the data; set as the request
	// completes.
	Served Service

	// Ret is where the completed request returns (nil: nowhere). Tag is
	// Ret's own continuation detail: the walk serial for the walker, the
	// bypass-MSHR mark for a cache, unused by a core. A checkpoint records
	// Ret as its engine registration index, so the pair is the whole route.
	Ret Sink
	Tag uint64

	// pool, when non-nil, is the free list this request returns to after
	// Complete; set only by Pool.Get.
	pool *Pool
	// life guards the single-Complete lifecycle.
	life lifeState
}

// Complete marks the request served at svc, delivers it to Ret, and — for
// pool-owned requests — recycles the object into its pool. The caller
// must not touch r after Complete returns. Completing a request twice, or
// completing one that has already been recycled, panics.
func (r *Request) Complete(now int64, svc Service) {
	switch r.life {
	case lifeDone:
		panic("memreq: Request completed twice")
	case lifeFree:
		panic("memreq: Complete on a recycled Request (use-after-done)")
	}
	r.life = lifeDone
	if r.Served == ServedNone {
		r.Served = svc
	}
	if r.Ret != nil {
		r.Ret.RequestDone(now, r)
	}
	if r.pool != nil {
		r.pool.put(r)
	}
}

// TransSink is a component a completed TransReq returns to: the L1 TLB of
// tr.CoreID, which finds its miss tracker by tr.VPN.
type TransSink interface {
	TransDone(now int64, tr *TransReq, frame uint64)
}

// TransSinkFunc adapts a function to TransSink (see SinkFunc).
type TransSinkFunc func(now int64, tr *TransReq, frame uint64)

// TransDone implements TransSink.
func (f TransSinkFunc) TransDone(now int64, tr *TransReq, frame uint64) { f(now, tr, frame) }

// TransReq is a virtual-page translation request flowing through the TLB
// hierarchy. Ret receives it back with the translated physical frame number.
type TransReq struct {
	AppID  int
	ASID   uint8
	CoreID int

	// VPN is the virtual page number being translated.
	VPN uint64
	// HasToken records whether the requesting warp held a TLB-Fill Token at
	// issue time (§5.2); it controls whether the walker's result may fill the
	// shared L2 TLB or only the bypass cache.
	HasToken bool
	// StalledWarps counts the warps blocked on this translation; maintained
	// by the L1 TLB MSHR and consumed by the Address-Space-Aware DRAM
	// scheduler's WarpsStalled metric (§5.4).
	StalledWarps int

	// Ret is where the translation returns; a checkpoint does not record it:
	// the L1 TLB whose miss tracker writes the request is where it returns.
	Ret TransSink

	pool *TransPool
	life lifeState
}

// Complete delivers the translated frame to Ret and, for pool-owned
// requests, recycles the object. Mirrors Request.Complete: the caller must
// not touch tr afterwards, and double completion panics.
func (tr *TransReq) Complete(now int64, frame uint64) {
	switch tr.life {
	case lifeDone:
		panic("memreq: TransReq completed twice")
	case lifeFree:
		panic("memreq: Complete on a recycled TransReq (use-after-done)")
	}
	tr.life = lifeDone
	if tr.Ret != nil {
		tr.Ret.TransDone(now, tr, frame)
	}
	if tr.pool != nil {
		tr.pool.put(tr)
	}
}
