// Package cache implements the set-associative cache model used for the
// private L1 data caches, the shared L2 data cache, and the page walk cache.
//
// The model captures the effects the paper depends on:
//
//   - bounded bandwidth: each cache has banks with a fixed number of ports;
//     requests queue per bank, so bursts of page-walk traffic create the
//     queueing delays analysed in §4.3 and attacked by MASK's L2 bypass;
//   - fixed access latency per level (Table 1);
//   - MSHR-based miss merging, so many warps touching one line generate a
//     single fill;
//   - per-traffic-class and per-page-walk-level hit counters, the inputs to
//     the Address-Translation-Aware L2 Bypass decision (§5.3);
//   - an optional bypass hook that routes selected requests straight to the
//     backing store, skipping both probe and fill;
//   - optional way partitioning, used by the Static baseline to model
//     statically provisioned L2 capacity (NVIDIA GRID / AMD FirePro style).
package cache

import (
	"fmt"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/mshr"
	"masksim/internal/slab"
)

// Backend is the next level below a cache (another cache, or DRAM).
// Submit returns false when the component cannot accept the request this
// cycle (queue full); the caller must retry.
type Backend interface {
	Submit(now int64, r *memreq.Request) bool
}

// Config describes a cache instance.
type Config struct {
	Name         string
	SizeBytes    int
	Ways         int
	LineSize     int
	Banks        int
	PortsPerBank int
	// Latency is the access (tag+data) latency in cycles.
	Latency int64
	// QueueCap bounds each bank's input queue; 0 means unbounded.
	QueueCap int
	// WriteBack selects write-back with dirty evictions (the shared L2).
	// When false the cache is write-through no-allocate (the L1s).
	WriteBack bool
	// MSHRs bounds the number of outstanding distinct line misses; 0 means
	// unbounded.
	MSHRs int
	// WriteCombineWindow, for write-through caches, absorbs repeated stores
	// to one line within the window (cycles) into a single forwarded write,
	// modelling the GPU's write-combining/store buffers: warps of a thread
	// block storing to the same lines must not multiply downstream
	// bandwidth. 0 disables combining.
	WriteCombineWindow int64
	// Arena, when non-nil, supplies the backing storage for the line array
	// from a shared batch allocation (see LineArena). Nil allocates privately.
	Arena *LineArena
}

// LineArena batch-allocates cache line arrays: the simulator sizes one arena
// for every cache it will build (ArenaLines sums the geometry), and each
// cache's New carves its line slice out of it with a full-capacity reslice,
// so neighbouring caches cannot append into each other's storage. One
// construction-time allocation replaces one per cache, which matters for
// short runs and large campaign sweeps. An exhausted (or nil) arena falls
// back to private allocation.
type LineArena struct {
	lines []Line
}

// NewLineArena returns an arena with capacity for totalLines cache lines.
func NewLineArena(totalLines int) *LineArena {
	return &LineArena{lines: make([]Line, totalLines)}
}

// take carves n lines off the arena, or allocates privately when the arena is
// nil or short.
func (a *LineArena) take(n int) []Line {
	if a == nil || len(a.lines) < n {
		return make([]Line, n)
	}
	out := a.lines[:n:n]
	a.lines = a.lines[n:]
	return out
}

// ArenaLines returns the number of lines New will allocate for a cache with
// the given geometry, mirroring New's sets*ways rounding, so callers can size
// a shared LineArena exactly.
func ArenaLines(sizeBytes, lineSize, ways int) int {
	numLines := sizeBytes / lineSize
	return (numLines / ways) * ways
}

// Stats aggregates hit/miss counters for one traffic class. Translation
// traffic is additionally broken down by page-walk level.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Bypasses uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 when there were no probes.
func (s Stats) HitRate() float64 {
	probes := s.Hits + s.Misses
	if probes == 0 {
		return 0
	}
	return float64(s.Hits) / float64(probes)
}

// Line is one cache line. The line array is plain data: a checkpoint writes
// it as it is.
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	// Stamp implements LRU: the victim is the valid line with the smallest
	// stamp; ways are few enough that a linear scan is cheap.
	Stamp int64
}

// Counters is the cache's plain state besides its lines — the LRU clock, the
// write-combine swap cycle and the per-level statistics — which a checkpoint
// writes as it is.
type Counters struct {
	// Stamp is the LRU clock: the last stamp given to a line.
	Stamp int64
	// CombineSwapAt is the cycle of the next write-combine generation swap.
	CombineSwapAt int64
	// Per-level stats: index 0 is data, 1..4 are page-walk levels.
	LevelStats [memreq.MaxWalkLevel + 1]Stats
	// EpochStats are rolled by EpochRoll into LastRates.
	EpochStats [memreq.MaxWalkLevel + 1]Stats
	LastRates  [memreq.MaxWalkLevel + 1]float64
	LastValid  [memreq.MaxWalkLevel + 1]bool
}

// mshrTable holds a cache's outstanding line fetches by line address, each
// with the requests merged into it in arrival order.
type mshrTable = mshr.Table[uint64, struct{}, *memreq.Request]

// lineKeys are the keys of a cache's MSHR tables.
var lineKeys = mshr.Numbers("line")

// tagBypass is the Request.Tag of a bypass fetch: its fill resumes the
// bypass MSHR of its line, any other fill the regular one.
const tagBypass = 1

// Cache is a banked, set-associative, LRU cache.
type Cache struct {
	cfg       Config
	lineShift uint
	sets      int
	lines     []Line // sets*ways, set-major
	backend   Backend

	queues []engine.Queue[*memreq.Request]

	mshrs mshrTable
	// bypassMSHRs coalesces concurrent bypassed reads of one line: bypassing
	// skips the probe and the fill (§5.3), but miss-status registers still
	// exist, so identical in-flight line fetches must not be duplicated.
	bypassMSHRs mshrTable
	// retry holds fill and write requests the backend rejected.
	retry engine.Queue[*memreq.Request]

	// pool recycles the requests this cache originates (fills, bypass
	// fetches, forwarded writes, writebacks) and completes the ones it
	// serves: the simulator's one pool. route is the cache's own entry in
	// the pool's sink table, which its line fetches return on.
	pool  *memreq.Pool
	route memreq.Route

	// bypass, when non-nil, routes matching requests directly to the backend
	// with no probe, no fill, and no bank-queue occupancy. Used for MASK's
	// Address-Translation-Aware L2 Bypass.
	bypass func(r *memreq.Request) bool

	// wayMask, when non-empty, restricts the replacement victim for each app
	// to its allowed ways (Static partitioning). Indexed by AppID.
	wayMask []uint64

	// Write-combining state: two generation sets swapped every window
	// (Counters.CombineSwapAt), so a line is absorbed for between one and
	// two windows after its first forwarded store.
	combineCur, combinePrev map[uint64]struct{}

	counters Counters
}

// New creates a cache whose own requests come from pool. backend may be nil
// only for caches that are guaranteed never to miss or write through (not
// used in practice; the simulator always wires a backend).
func New(cfg Config, backend Backend, pool *memreq.Pool) *Cache {
	return Renew(nil, cfg, backend, pool)
}

// Renew is New built in place over a donor: c is retired and comes back as
// New(cfg, backend, pool) would return it, over the donor's small buffers
// where they fit (docs/MODEL.md §11). A nil donor allocates everything.
func Renew(c *Cache, cfg Config, backend Backend, pool *memreq.Pool) *Cache {
	if cfg.LineSize <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %+v", cfg.Name, cfg))
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.PortsPerBank <= 0 {
		cfg.PortsPerBank = 1
	}
	numLines := cfg.SizeBytes / cfg.LineSize
	sets := numLines / cfg.Ways
	if sets == 0 {
		panic(fmt.Sprintf("cache %s: fewer lines than ways", cfg.Name))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	if 1<<shift != cfg.LineSize {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if c == nil {
		c = new(Cache)
	}
	c.Retire()
	c.cfg, c.lineShift, c.sets, c.backend, c.pool = cfg, shift, sets, backend, pool
	c.route = pool.Register(c)
	c.lines = cfg.Arena.take(sets * cfg.Ways)
	c.queues = slab.Donors(c.queues, cfg.Banks)
	for b := range c.queues {
		c.queues[b] = c.queues[b].Renewed(cfg.Latency, cfg.QueueCap)
	}
	c.mshrs, c.bypassMSHRs = c.mshrs.Renewed(cfg.MSHRs, lineKeys), c.bypassMSHRs.Renewed(0, lineKeys)
	if cfg.WriteCombineWindow > 0 {
		c.combineCur, c.combinePrev = slab.Map(c.combineCur), slab.Map(c.combinePrev)
	} else {
		c.combineCur, c.combinePrev = nil, nil
	}
	return c
}

// Retire empties c in place: what is left is the zero Cache but for the
// capacity of its small buffers — bank rings, MSHR tables, retry list,
// write-combine sets — with nothing in them. It holds no line array, no
// request, no pool and no neighbour, so a retired cache pins nothing else of
// the simulator it was part of. Renew starts here; a sim.Recycler retires
// what it keeps.
func (c *Cache) Retire() {
	d := *c
	d.queues = d.queues[:cap(d.queues)]
	for b := range d.queues {
		d.queues[b] = d.queues[b].Renewed(0, 0)
	}
	clear(d.combineCur)
	clear(d.combinePrev)
	*c = Cache{
		queues:      d.queues,
		mshrs:       d.mshrs.Renewed(0, nil),
		bypassMSHRs: d.bypassMSHRs.Renewed(0, nil),
		retry:       d.retry.Renewed(0, 0),
		combineCur:  d.combineCur,
		combinePrev: d.combinePrev,
	}
}

// SetBypass installs the bypass predicate (nil disables bypassing).
func (c *Cache) SetBypass(f func(r *memreq.Request) bool) {
	c.bypass = f
}

// SetWayPartition restricts each app to a subset of ways. masks[app] is a
// bitmask over way indices. An empty slice disables partitioning.
func (c *Cache) SetWayPartition(masks []uint64) {
	c.wayMask = masks
}

// LevelStats returns cumulative stats for walk level lvl (0 = data).
func (c *Cache) LevelStats(lvl int) Stats { return c.counters.LevelStats[lvl] }

// LastEpochHitRate returns the hit rate measured during the previous epoch
// for walk level lvl, and whether any probes were observed.
func (c *Cache) LastEpochHitRate(lvl int) (float64, bool) {
	return c.counters.LastRates[lvl], c.counters.LastValid[lvl]
}

// EpochRoll snapshots the current epoch's per-level hit rates and starts a
// new epoch. The MASK L2 bypass policy calls this on epoch boundaries (§5.2).
func (c *Cache) EpochRoll() {
	for lvl := range c.counters.EpochStats {
		probes := c.counters.EpochStats[lvl].Hits + c.counters.EpochStats[lvl].Misses
		if probes > 0 {
			c.counters.LastRates[lvl] = float64(c.counters.EpochStats[lvl].Hits) / float64(probes)
			c.counters.LastValid[lvl] = true
		}
		c.counters.EpochStats[lvl] = Stats{}
	}
}

func (c *Cache) bankOf(lineAddr uint64) int {
	return int(lineAddr % uint64(c.cfg.Banks))
}

func (c *Cache) setOf(lineAddr uint64) int {
	return int(lineAddr % uint64(c.sets))
}

// Submit implements Backend: it accepts a request into the cache's bank
// queue. It returns false when the bank queue is full.
func (c *Cache) Submit(now int64, r *memreq.Request) bool {
	lineAddr := r.Addr >> c.lineShift
	if c.bypass != nil && r.Kind == memreq.Read && c.bypass(r) {
		// Bypassed requests skip the queue, the probe, and the fill. They
		// still consume backend bandwidth and still coalesce in MSHRs; if
		// the backend is full the line fetch waits in the retry list rather
		// than the bank queue, so it does not contend with cached traffic
		// (§5.3).
		c.counters.LevelStats[r.WalkLevel].Accesses++
		c.counters.LevelStats[r.WalkLevel].Bypasses++
		if e, ok := c.bypassMSHRs.Find(lineAddr); ok {
			c.bypassMSHRs.Add(e, r)
			return true
		}
		c.bypassMSHRs.Add(c.bypassMSHRs.Open(lineAddr, struct{}{}), r)
		fetch := c.pool.Get()
		fetch.AppID, fetch.CoreID, fetch.WarpID = r.AppID, r.CoreID, r.WarpID
		fetch.Kind, fetch.Class, fetch.WalkLevel = memreq.Read, r.Class, r.WalkLevel
		fetch.Addr, fetch.Issue = lineAddr<<c.lineShift, r.Issue
		fetch.Ret, fetch.Tag = c.route, tagBypass
		if !c.backend.Submit(now, fetch) {
			c.retry.Push(now, fetch)
		}
		return true
	}
	return c.queues[c.bankOf(lineAddr)].Push(now, r)
}

// QueueOccupancy returns the total number of queued requests across banks,
// used by tests and congestion metrics.
func (c *Cache) QueueOccupancy() int {
	n := 0
	for i := range c.queues {
		n += c.queues[i].Len()
	}
	return n
}

// Tick services each bank's ready requests (up to the port limit) and retries
// rejected backend submissions.
func (c *Cache) Tick(now int64) {
	if w := c.cfg.WriteCombineWindow; w > 0 && now >= c.counters.CombineSwapAt {
		if now-c.counters.CombineSwapAt >= w {
			// More than a whole window elapsed since the swap was due
			// (idle gap): both generations are stale.
			clear(c.combinePrev)
		} else {
			c.combineCur, c.combinePrev = c.combinePrev, c.combineCur
		}
		clear(c.combineCur)
		c.counters.CombineSwapAt = now + w
	}
	// Retry backend submissions first so freed backend slots are used by the
	// oldest blocked traffic.
	if c.retry.Len() > 0 {
		pass := c.retry.Offers()
		for _, r := range pass.Items {
			if !c.backend.Submit(now, r) {
				pass.Keep(r)
			}
		}
		pass.Done()
	}

	for b := range c.queues {
		q := &c.queues[b]
		for served := 0; served < c.cfg.PortsPerBank && q.NextReady(now) == now; served++ {
			r, _ := q.Pop(now)
			c.service(now, r)
		}
	}
}

// NextEvent implements engine.EventSource: the cache must be ticked when it
// has rejected submissions to retry, and otherwise no earlier than the head
// of its earliest-ready bank queue. Bank queues are strict FIFOs serviced
// only from the front, so nothing behind the head can be served sooner than
// the head's ready cycle even if its own readyAt is smaller (the MSHR-full
// re-enqueue path produces such items). MSHR fills arrive through RequestDone,
// driven by the backend's ticks, and write-combine window swaps are replayed
// exactly by SkipTo, so neither forces a wakeup.
func (c *Cache) NextEvent(now int64) int64 {
	if c.retry.Len() > 0 {
		return now
	}
	h := engine.NoEvent
	for b := range c.queues {
		h = min(h, c.queues[b].NextReady(now))
	}
	return h
}

// SkipTo implements engine.Skipper: replay the write-combine generation swaps
// Tick would have performed at each window boundary inside [from, to). No
// stores arrive during a skipped span (the whole system is quiescent), so
// each boundary's effect is mechanical: swap the generation sets and clear
// the new current one. Two or more boundaries leave both sets empty; the
// parity swap keeps even map identity equal to the single-stepped run.
//
// CombineSwapAt >= from holds on entry: the tick at from-1 either performed a
// swap (setting CombineSwapAt = from-1+window > from-1) or found
// CombineSwapAt > from-1 already.
func (c *Cache) SkipTo(from, to int64) {
	w := c.cfg.WriteCombineWindow
	if w <= 0 || c.counters.CombineSwapAt >= to {
		return
	}
	n := (to-1-c.counters.CombineSwapAt)/w + 1 // boundaries CombineSwapAt + k*w < to
	if n == 1 {
		c.combineCur, c.combinePrev = c.combinePrev, c.combineCur
		clear(c.combineCur)
	} else {
		clear(c.combineCur)
		clear(c.combinePrev)
		if n%2 == 1 {
			c.combineCur, c.combinePrev = c.combinePrev, c.combineCur
		}
	}
	c.counters.CombineSwapAt += n * w
}

func (c *Cache) service(now int64, r *memreq.Request) {
	lineAddr := r.Addr >> c.lineShift
	c.counters.LevelStats[r.WalkLevel].Accesses++

	set := c.setOf(lineAddr)
	base := set * c.cfg.Ways
	hitWay := -1
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.Valid && ln.Tag == lineAddr {
			hitWay = w
			break
		}
	}

	if r.Kind == memreq.Write {
		c.serviceWrite(now, r, base, hitWay)
		return
	}

	if hitWay >= 0 {
		c.recordHit(r)
		c.counters.Stamp++
		c.lines[base+hitWay].Stamp = c.counters.Stamp
		c.pool.Complete(r, now, c.serviceLevel())
		return
	}

	c.recordMiss(r)

	// Merge into an existing MSHR if one covers this line.
	if e, ok := c.mshrs.Find(lineAddr); ok {
		c.mshrs.Add(e, r)
		return
	}
	if c.mshrs.Full() {
		// MSHRs exhausted: the request must retry through the bank queue.
		// Re-enqueue at the back with no additional latency charge beyond
		// the natural queueing delay.
		c.queues[c.bankOf(lineAddr)].PushAt(now+1, r)
		return
	}
	c.mshrs.Add(c.mshrs.Open(lineAddr, struct{}{}), r)
	fill := c.pool.Get()
	fill.AppID, fill.CoreID, fill.WarpID = r.AppID, r.CoreID, r.WarpID
	fill.Kind, fill.Class, fill.WalkLevel = memreq.Read, r.Class, r.WalkLevel
	fill.Addr, fill.Issue = lineAddr<<c.lineShift, r.Issue
	fill.Ret = c.route
	if !c.backend.Submit(now, fill) {
		c.retry.Push(now, fill)
	}
}

func (c *Cache) serviceWrite(now int64, r *memreq.Request, base, hitWay int) {
	if c.cfg.WriteBack {
		if hitWay >= 0 {
			c.recordHit(r)
			ln := &c.lines[base+hitWay]
			c.counters.Stamp++
			ln.Stamp = c.counters.Stamp
			ln.Dirty = true
			c.pool.Complete(r, now, c.serviceLevel())
			return
		}
		c.recordMiss(r)
		// Write-allocate: install the line (fetch-on-write is approximated
		// by an immediate install plus a fill read charged to the backend),
		// then mark dirty. The store itself retires immediately via the
		// write buffer.
		lineAddr := r.Addr >> c.lineShift
		c.install(now, lineAddr, true, r.AppID)
		fill := c.pool.Get()
		fill.AppID, fill.CoreID = r.AppID, r.CoreID
		fill.Kind, fill.Class, fill.WalkLevel = memreq.Read, r.Class, r.WalkLevel
		fill.Addr, fill.Issue = lineAddr<<c.lineShift, now
		if !c.backend.Submit(now, fill) {
			c.retry.Push(now, fill)
		}
		c.pool.Complete(r, now, c.serviceLevel())
		return
	}
	// Write-through no-allocate: update on hit, always forward, retire now.
	if hitWay >= 0 {
		c.recordHit(r)
		c.counters.Stamp++
		c.lines[base+hitWay].Stamp = c.counters.Stamp
	} else {
		c.recordMiss(r)
	}
	if c.cfg.WriteCombineWindow > 0 {
		lineAddr := r.Addr >> c.lineShift
		if _, ok := c.combineCur[lineAddr]; ok {
			c.pool.Complete(r, now, c.serviceLevel())
			return
		}
		if _, ok := c.combinePrev[lineAddr]; ok {
			c.pool.Complete(r, now, c.serviceLevel())
			return
		}
		if c.combineCur == nil {
			c.combineCur = make(map[uint64]struct{})
			c.combinePrev = make(map[uint64]struct{})
		}
		c.combineCur[lineAddr] = struct{}{}
	}
	fwd := c.pool.Get()
	fwd.AppID, fwd.CoreID = r.AppID, r.CoreID
	fwd.Kind, fwd.Class, fwd.WalkLevel = memreq.Write, r.Class, r.WalkLevel
	fwd.Addr, fwd.Issue = r.Addr, now
	if !c.backend.Submit(now, fwd) {
		c.retry.Push(now, fwd)
	}
	c.pool.Complete(r, now, c.serviceLevel())
}

// RequestDone implements memreq.Sink for the cache's own line fetches,
// regular fills and bypass fetches alike: it finds the MSHR the fetch was
// issued for, closes it and wakes the merged waiters.
func (c *Cache) RequestDone(now int64, fr *memreq.Request) {
	lineAddr := fr.Addr >> c.lineShift
	set := &c.mshrs
	if fr.Tag == tagBypass {
		set = &c.bypassMSHRs
	}
	e, _ := set.Find(lineAddr)
	_, ws := set.Close(e)
	if fr.Tag != tagBypass {
		c.install(now, lineAddr, false, fr.AppID)
	}
	for w, ok := set.Pop(&ws); ok; w, ok = set.Pop(&ws) {
		w.Served = fr.Served
		c.pool.Complete(w, now, fr.Served)
	}
}

// install places lineAddr into its set, evicting the LRU victim (restricted
// to the app's ways under partitioning) and emitting a writeback if dirty.
func (c *Cache) install(now int64, lineAddr uint64, dirty bool, appID int) {
	set := c.setOf(lineAddr)
	base := set * c.cfg.Ways
	victim := -1
	var victimStamp int64 = 1<<63 - 1
	var mask uint64 = ^uint64(0)
	if len(c.wayMask) > 0 && appID >= 0 && appID < len(c.wayMask) {
		mask = c.wayMask[appID]
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		ln := &c.lines[base+w]
		if !ln.Valid {
			victim = w
			break
		}
		if ln.Stamp < victimStamp {
			victimStamp = ln.Stamp
			victim = w
		}
	}
	if victim < 0 {
		// The app's way mask is empty (misconfiguration); fall back to way 0
		// so the simulation stays live.
		victim = 0
	}
	ln := &c.lines[base+victim]
	if ln.Valid && ln.Dirty && c.cfg.WriteBack {
		wb := c.pool.Get()
		wb.Kind, wb.Class = memreq.Write, memreq.Data
		wb.Addr, wb.Issue, wb.AppID = ln.Tag<<c.lineShift, now, appID
		if !c.backend.Submit(now, wb) {
			c.retry.Push(now, wb)
		}
	}
	c.counters.Stamp++
	*ln = Line{Tag: lineAddr, Valid: true, Dirty: dirty, Stamp: c.counters.Stamp}
}

func (c *Cache) recordHit(r *memreq.Request) {
	c.counters.LevelStats[r.WalkLevel].Hits++
	c.counters.EpochStats[r.WalkLevel].Hits++
}

func (c *Cache) recordMiss(r *memreq.Request) {
	c.counters.LevelStats[r.WalkLevel].Misses++
	c.counters.EpochStats[r.WalkLevel].Misses++
}

func (c *Cache) serviceLevel() memreq.Service {
	// The cache reports itself as L1 or L2 based on write policy; precise
	// labelling only feeds stats, and in this simulator the only write-back
	// cache is the shared L2.
	if c.cfg.WriteBack {
		return memreq.ServedL2
	}
	return memreq.ServedL1
}

// FlushFraction invalidates roughly the given fraction of lines (every k-th
// line, deterministically), modelling partial state loss across a context
// switch. Dirty victims are written back. fraction >= 1 empties the cache.
func (c *Cache) FlushFraction(now int64, fraction float64) {
	if fraction <= 0 {
		return
	}
	stride := 1
	if fraction < 1 {
		stride = int(1 / fraction)
		if stride < 1 {
			stride = 1
		}
	}
	for i := range c.lines {
		if i%stride != 0 {
			continue
		}
		ln := &c.lines[i]
		if ln.Valid && ln.Dirty && c.cfg.WriteBack {
			wb := c.pool.Get()
			wb.Kind, wb.Class = memreq.Write, memreq.Data
			wb.Addr, wb.Issue = ln.Tag<<c.lineShift, now
			if !c.backend.Submit(now, wb) {
				c.retry.Push(now, wb)
			}
		}
		ln.Valid = false
		ln.Dirty = false
	}
}

// OutstandingMisses returns the number of active MSHRs (test/metrics helper).
func (c *Cache) OutstandingMisses() int { return c.mshrs.Len() }
