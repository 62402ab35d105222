// Package workload synthesises the memory behaviour of the paper's GPGPU
// benchmarks.
//
// The paper characterises applications by their position in a two-axis miss
// space (Table 2: L1 TLB miss rate low/high × L2 TLB miss rate low/high) plus
// memory intensity, divergence, and locality. Each named benchmark is
// reproduced as a Profile: a parameterised stochastic address-stream
// generator whose parameters are calibrated to land in the same quadrant and
// to exercise the same mechanisms (per-warp streaming, page sharing across
// warps, random scatter, write intensity, row-buffer locality).
//
// Streams are deterministic: all draws come from per-warp xorshift64*
// sources seeded from the app seed, so a simulation is exactly repeatable.
package workload

import (
	"fmt"

	"masksim/internal/rng"
)

// pageShiftFor returns log2(pageSize). Page sizes must be positive powers of
// two; anything else would silently misalign every page mask downstream, so
// the helper panics with the offending value instead. Every page-size shift
// computation in this package goes through here.
func pageShiftFor(pageSize int) uint {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("workload: page size %d is not a positive power of two", pageSize))
	}
	shift := uint(0)
	for 1<<shift < pageSize {
		shift++
	}
	return shift
}

// MissClass labels a benchmark's TLB miss-rate class per Table 2.
type MissClass uint8

// Miss-rate classes.
const (
	Low MissClass = iota
	High
)

// String returns "low" or "high".
func (c MissClass) String() string {
	if c == High {
		return "high"
	}
	return "low"
}

// Profile is the tunable model of one benchmark's memory behaviour.
type Profile struct {
	Name string

	// HotBytes is the size of the region shared by all warps (drives the
	// cross-warp translation sharing that makes one TLB miss stall many
	// warps, §4.1). PrivateBytes is divided into per-warp chunks.
	HotBytes     int
	PrivateBytes int

	// HotProb is the probability a new-page selection targets the hot
	// region rather than the warp's private chunk.
	HotProb float64
	// PageStayProb is the probability an access stays within the warp's
	// current page (within-page spatial locality).
	PageStayProb float64
	// SeqProb is the probability a private new-page selection advances
	// sequentially (streaming) rather than jumping at random.
	SeqProb float64

	// ComputePerMem is the mean number of compute instructions between
	// memory instructions (memory intensity knob).
	ComputePerMem int
	// Divergence is the number of distinct pages a single memory
	// instruction touches after coalescing (1 = fully coalesced).
	Divergence int
	// DivergeProb is the probability a memory instruction actually diverges
	// (touches Divergence pages instead of one). Divergent accesses pick
	// per-warp pages, so every such access needs its own translation.
	// Defaults to 1 when Divergence > 1.
	DivergeProb float64
	// ScatterHotFrac is the fraction of divergent-lane pages drawn from the
	// hot region (reusable translations) versus the whole footprint (cold
	// translations with uncached page-table leaves). See Stream.scatterPage.
	ScatterHotFrac float64
	// LinesPerInst is the number of cache lines a warp's coalesced access
	// touches on its primary page (a 64-thread warp touching consecutive
	// 4-byte elements covers several 64B lines). Divergent extra pages get
	// one line each.
	LinesPerInst int
	// WriteFrac is the fraction of memory instructions that are stores.
	WriteFrac float64
	// RandomLines scatters accesses within a page instead of walking it
	// sequentially; it destroys DRAM row-buffer locality.
	RandomLines bool

	// VAStridePages spaces consecutive logical pages this many page slots
	// apart in the virtual address space, modelling the sparse, multi-GB
	// allocations of real GPGPU workloads. Sparse layouts populate many
	// page-table leaf (and next-level) nodes, which is what produces the
	// paper's per-level walk hit-rate gradient (99.8/98.8/68.7/1.0%, §4.3):
	// with a dense layout the whole radix table fits in a few cache lines
	// and every walk level would hit. 0 or 1 means dense.
	VAStridePages int

	// WarpsPerGroup makes groups of adjacent warps execute identical
	// streams over a shared private chunk, modelling thread blocks working
	// on adjacent data. Grouping is what makes a single TLB miss stall many
	// warps at once (§4.1/Figure 6): every warp in the group needs the same
	// translation at nearly the same time. 0 or 1 disables grouping.
	WarpsPerGroup int

	// L1Class and L2Class record the Table 2 quadrant this profile is
	// calibrated for (documentation + test oracle).
	L1Class, L2Class MissClass
}

// HighHigh reports whether the profile is in the high/high quadrant; the
// paper calls these "HMR" applications and groups workloads by how many
// members have both miss rates high (n-HMR, §6).
func (p Profile) HighHigh() bool {
	return p.L1Class == High && p.L2Class == High
}

// PageAccess is the coalesced portion of a memory instruction falling on one
// virtual page: one translation covers all its lines.
type PageAccess struct {
	// Lines holds line-aligned virtual byte addresses, all on one page.
	Lines []uint64
}

// MemInst is one warp-level memory instruction after coalescing: accesses
// grouped by distinct page, plus the store flag.
type MemInst struct {
	Pages []PageAccess
	Write bool
}

// Stream generates one warp's instruction stream.
type Stream struct {
	// p is the app's profile, normalised and shared by every stream of one
	// StreamFactory; nil for trace replays.
	p   *Profile
	rnd rng.Source
	// scatterRnd drives divergent-lane page selection. It is seeded per
	// warp (not per group): divergent accesses touch different pages in
	// different warps, so they do not coalesce across the group — each one
	// demands its own translation, a major source of page-walk pressure.
	scatterRnd rng.Source
	pageShift  uint
	lineSize   uint64

	base      uint64 // VA base of the app's heap
	hotPages  uint64
	privStart uint64 // first page index of this warp's private chunk
	privLen   uint64
	totPages  uint64 // hot + all private (for divergent scatter)

	curPage uint64 // current page index (app-relative)
	curLine uint64

	sync       *GroupSync
	syncMember int

	// replay, when non-nil, makes the stream replay an external trace
	// (TraceSet) instead of generating synthetic accesses.
	replay    []TraceEntry
	replayPos int
	replayGap int

	lineStore []uint64
	pageBuf   []PageAccess
}

// SyncStalled reports whether the warp must wait for its group's slower
// members before issuing another memory instruction (thread-block barrier
// model; see GroupSync).
func (s *Stream) SyncStalled() bool {
	return s.sync != nil && s.sync.Stalled(s.syncMember)
}

// groups returns the number of warp groups for numWarps warps.
func (p Profile) groups(numWarps int) int {
	g := p.WarpsPerGroup
	if g < 1 {
		g = 1
	}
	n := (numWarps + g - 1) / g
	if n < 1 {
		n = 1
	}
	return n
}

// Layout computes the page-region geometry shared by StreamFactory and
// PagesToMap, guaranteeing they agree.
func (p Profile) Layout(pageSize, numWarps int) (hotPages, privTotal uint64) {
	ps := uint64(pageSize)
	hotPages = uint64(p.HotBytes) / ps
	if hotPages < 1 {
		hotPages = 1
	}
	privTotal = uint64(p.PrivateBytes) / ps
	if g := uint64(p.groups(numWarps)); privTotal < g {
		privTotal = g // at least one private page per warp group
	}
	return
}

// linesPerPage returns how many cache lines fit in a page.
func (s *Stream) linesPerPage() uint64 {
	return (uint64(1) << s.pageShift) / s.lineSize
}

// newPage picks the next page for the warp and makes it current.
func (s *Stream) newPage() {
	if s.rnd.Bool(s.p.HotProb) && s.hotPages > 0 {
		// Hot region: mildly sequential so hot pages also enjoy row hits.
		if s.rnd.Bool(0.5) {
			s.curPage = (s.curPage + 1) % s.hotPages
		} else {
			s.curPage = uint64(s.rnd.Intn(int(s.hotPages)))
		}
		return
	}
	if s.rnd.Bool(s.p.SeqProb) {
		// Stream through the private chunk.
		next := s.curPage + 1
		if next < s.privStart || next >= s.privStart+s.privLen {
			next = s.privStart
		}
		s.curPage = next
		return
	}
	s.curPage = s.privStart + uint64(s.rnd.Intn(int(s.privLen)))
}

// scatterPage picks a page for a divergent lane. Scatter pages are per-warp
// (uncoalesced), so each one demands its own translation. With probability
// ScatterHotFrac the lane indexes a shared structure in the hot region
// (reuse distance the shared L2 TLB — and MASK's TLB-Fill Tokens — can
// capture); otherwise it lands anywhere in the footprint (a cold page whose
// walk reads uncached leaf PTEs, the expensive walks MASK's L2 bypass and
// DRAM scheduler attack).
func (s *Stream) scatterPage() uint64 {
	hotFrac := s.p.ScatterHotFrac
	if s.hotPages < 64 {
		hotFrac = 0
	}
	if hotFrac > 0 && s.rnd.Bool(hotFrac) {
		// Real divergent references are heavily skewed (popular graph
		// vertices, hash-table heads): most land on a small "head" of the
		// hot region, the rest anywhere in it. The head's reuse distance is
		// what a well-managed shared TLB can capture — and what fill
		// thrashing from the tail destroys, giving TLB-Fill Tokens their
		// opportunity (§5.2).
		if s.rnd.Bool(0.7) {
			head := s.hotPages / 8
			if head < 16 {
				head = 16
			}
			return uint64(s.rnd.Intn(int(head)))
		}
		return uint64(s.rnd.Intn(int(s.hotPages)))
	}
	return uint64(s.scatterRnd.Intn(int(s.totPages)))
}

// stride returns the VA spacing multiplier between logical pages.
func (s *Stream) stride() uint64 {
	if s.p.VAStridePages > 1 {
		return uint64(s.p.VAStridePages)
	}
	return 1
}

// addrFor returns a line-aligned VA within page for the current line cursor.
func (s *Stream) addrFor(page uint64) uint64 {
	lpp := s.linesPerPage()
	var line uint64
	if s.p.RandomLines {
		line = uint64(s.rnd.Intn(int(lpp)))
	} else {
		s.curLine = (s.curLine + 1) % lpp
		line = s.curLine
	}
	return s.base + (page*s.stride())<<s.pageShift + line*s.lineSize
}

// NextMem generates the warp's next memory instruction. The returned
// structure reuses buffers owned by the stream; it stays valid until the
// next NextMem call (the core consumes one instruction per warp at a time,
// and a stream belongs to one warp).
func (s *Stream) NextMem() MemInst {
	if s.replay != nil {
		return s.nextReplay()
	}
	if s.sync != nil {
		s.sync.Advance(s.syncMember)
	}
	if !s.rnd.Bool(s.p.PageStayProb) {
		s.newPage()
	}
	// Build all line addresses into one backing store, then slice per page;
	// the store's capacity is fixed after warm-up, so no per-call
	// allocation occurs in steady state.
	s.lineStore = s.lineStore[:0]
	for i := 0; i < s.p.LinesPerInst; i++ {
		s.lineStore = append(s.lineStore, s.addrFor(s.curPage))
	}
	extras := 0
	if s.p.Divergence > 1 {
		dp := s.p.DivergeProb
		if dp == 0 {
			dp = 1
		}
		// Draw from the group RNG so all warps of a group diverge on the
		// same instructions (they execute the same code path); the pages
		// they diverge TO are per-warp.
		if s.rnd.Bool(dp) {
			extras = s.p.Divergence - 1
		}
	}
	for i := 0; i < extras; i++ {
		s.lineStore = append(s.lineStore, s.addrFor(s.scatterPage()))
	}
	s.pageBuf = s.pageBuf[:0]
	s.pageBuf = append(s.pageBuf, PageAccess{Lines: s.lineStore[:s.p.LinesPerInst]})
	for i := 0; i < extras; i++ {
		off := s.p.LinesPerInst + i
		s.pageBuf = append(s.pageBuf, PageAccess{Lines: s.lineStore[off : off+1]})
	}
	return MemInst{Pages: s.pageBuf, Write: s.rnd.Bool(s.p.WriteFrac)}
}

// nextReplay serves the next trace entry, grouping its addresses by page.
func (s *Stream) nextReplay() MemInst {
	e := s.replay[s.replayPos]
	s.replayPos = (s.replayPos + 1) % len(s.replay)
	s.replayGap = e.ComputeGap

	s.lineStore = append(s.lineStore[:0], e.Addrs...)
	s.pageBuf = s.pageBuf[:0]
	// Group consecutive addresses on the same page into one PageAccess.
	start := 0
	for i := 1; i <= len(s.lineStore); i++ {
		if i == len(s.lineStore) || s.lineStore[i]>>s.pageShift != s.lineStore[start]>>s.pageShift {
			s.pageBuf = append(s.pageBuf, PageAccess{Lines: s.lineStore[start:i]})
			start = i
		}
	}
	return MemInst{Pages: s.pageBuf, Write: e.Write}
}

// NextComputeGap returns the number of compute instructions to issue before
// the next memory instruction.
func (s *Stream) NextComputeGap() int {
	if s.replay != nil {
		return s.replayGap
	}
	c := s.p.ComputePerMem
	if c <= 0 {
		return 0
	}
	jitter := c/2 + 1
	g := c + s.rnd.Intn(jitter) - jitter/2
	if g < 0 {
		g = 0
	}
	return g
}

// PagesToMap calls fn with one virtual address per page the app's warps can
// touch, in ascending order, so the simulator can pre-populate the page
// table. The paper scopes out demand paging (§5.5); pages are mapped at load
// time.
func (p Profile) PagesToMap(base uint64, pageSize, numWarps int, fn func(va uint64)) {
	hot, priv := p.Layout(pageSize, numWarps)
	shift := pageShiftFor(pageSize)
	stride := uint64(1)
	if p.VAStridePages > 1 {
		stride = uint64(p.VAStridePages)
	}
	for pg := uint64(0); pg < hot+priv; pg++ {
		fn(base + (pg*stride)<<shift)
	}
}
