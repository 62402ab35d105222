package workload

// GroupSync keeps the warps of one group loosely in phase, modelling the
// barrier-synchronised thread blocks of real GPGPU kernels. Without it the
// members of a group drift apart over time until their "shared" pages are
// never live simultaneously — with it, a page fetched for one member is hot
// when its peers need it, which is what makes a single TLB miss stall many
// warps (§4.1) and gives the shared TLB its reuse.
type GroupSync struct {
	// state holds each member's memory-instruction count, which a
	// checkpoint writes as it is (State).
	state GroupSyncState
	// min is the slowest member's count, which a restore recomputes.
	min int64
	// window is the maximum number of memory instructions a member may run
	// ahead of the slowest member.
	window int64
}

// Stalled reports whether member m must wait for slower members.
func (g *GroupSync) Stalled(m int) bool {
	return g.state.Steps[m]-g.min >= g.window
}

// Advance records one memory instruction by member m.
func (g *GroupSync) Advance(m int) {
	g.state.Steps[m]++
	if g.state.Steps[m]-1 == g.min {
		// m may have been (one of) the slowest; recompute the floor.
		min := g.state.Steps[0]
		for _, s := range g.state.Steps[1:] {
			if s < min {
				min = s
			}
		}
		g.min = min
	}
}

// StreamFactory builds all of one application's warp streams, wiring group
// members to shared GroupSync state. Everything its streams need — the
// Streams themselves, their line and page buffers, the group barriers — is
// carved from a few per-factory slices, and the profile is normalised once
// and shared, so building an app costs a handful of allocations rather than
// several per warp.
type StreamFactory struct {
	p         Profile
	base      uint64
	pageShift uint
	lineSize  uint64
	numWarps  int
	seed      uint64

	// Page-region geometry (Profile.Layout): hot shared pages, then chunk
	// private pages per group, total pages in all.
	hot, chunk, total uint64
	numGroups         int

	// streams, lines and pages are carved from slabs sized for every warp at
	// once.
	streams []Stream
	lines   []uint64
	pages   []PageAccess

	// syncs[group] is created, with its steps carved from steps, when the
	// group's first member is built.
	syncs []GroupSync
	steps []int64
}

// defaultSyncWindow bounds intra-group drift in memory instructions. Roughly
// two pages' worth of instructions for typical LinesPerInst values: close
// enough that peers reuse each other's translations, loose enough that the
// group is not lock-stepped.
const defaultSyncWindow = 24

// NewStreamFactory prepares stream construction for an app with numWarps
// warps.
func NewStreamFactory(p Profile, base uint64, pageSize, lineSize, numWarps int, seed uint64) *StreamFactory {
	if p.WarpsPerGroup < 1 {
		p.WarpsPerGroup = 1
	}
	if p.Divergence < 1 {
		p.Divergence = 1
	}
	if p.LinesPerInst < 1 {
		p.LinesPerInst = 1
	}
	f := &StreamFactory{
		p: p, base: base, pageShift: pageShiftFor(pageSize), lineSize: uint64(lineSize),
		numWarps: numWarps, seed: seed,
	}
	hot, priv := p.Layout(pageSize, numWarps)
	f.numGroups = p.groups(numWarps)
	f.hot, f.chunk, f.total = hot, max(priv/uint64(f.numGroups), 1), hot+priv
	return f
}

// stream builds the generator for one warp, without its group barrier.
func (f *StreamFactory) stream(warpIndex int) *Stream {
	nl, np := f.p.LinesPerInst+f.p.Divergence, f.p.Divergence
	if len(f.streams) == 0 {
		batch := max(f.numWarps, 1)
		f.streams = make([]Stream, batch)
		f.lines = make([]uint64, batch*nl)
		f.pages = make([]PageAccess, batch*np)
	}
	s := &f.streams[0]
	f.streams = f.streams[1:]
	group := min(warpIndex/f.p.WarpsPerGroup, f.numGroups-1)
	start := f.hot + uint64(group)*f.chunk
	*s = Stream{
		p:         &f.p,
		pageShift: f.pageShift,
		lineSize:  f.lineSize,
		base:      f.base,
		hotPages:  f.hot,
		privStart: start,
		privLen:   f.chunk,
		totPages:  f.total,
		curPage:   start,
		// The buffers' capacity is all a NextMem can need; capping it keeps a
		// stream that somehow outgrew its share off its neighbour's.
		lineStore: f.lines[:0:nl],
		pageBuf:   f.pages[:0:np],
	}
	f.lines, f.pages = f.lines[nl:], f.pages[np:]
	// Warps in one group share a seed so they generate identical streams:
	// they need the same translations at nearly the same time, which is how
	// a single TLB miss comes to stall a whole group (§4.1).
	s.rnd.Seed(f.seed ^ (uint64(group)+1)*0x9E3779B97F4A7C15)
	s.scatterRnd.Seed(f.seed ^ (uint64(warpIndex)+1)*0xD1B54A32D192ED03)
	return s
}

// New builds the stream for one warp, sharing GroupSync among group members.
func (f *StreamFactory) New(warpIndex int) *Stream {
	s := f.stream(warpIndex)
	g := f.p.WarpsPerGroup
	if g <= 1 {
		return s // ungrouped profiles need no sync
	}
	if f.syncs == nil {
		f.syncs = make([]GroupSync, f.numGroups)
		f.steps = make([]int64, f.numWarps)
	}
	group := warpIndex / g
	sync := &f.syncs[group]
	if sync.state.Steps == nil {
		members := min(g, f.numWarps-group*g)
		*sync = GroupSync{state: GroupSyncState{Steps: f.steps[group*g : group*g+members : group*g+members]}, window: defaultSyncWindow}
	}
	s.sync = sync
	s.syncMember = warpIndex % g
	return s
}
