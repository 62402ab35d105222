package cache

import (
	"fmt"

	"masksim/internal/memreq"
)

// LineState is one cache line's checkpoint image, index-aligned with the
// cache's set-major line array.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Stamp int64
}

// BankItemState is one queued bank-queue entry (FIFO order preserved).
type BankItemState struct {
	ReadyAt int64
	Req     int32
}

// MSHRState is one outstanding line fetch with its merged waiters in arrival
// order.
type MSHRState struct {
	LineAddr uint64
	Waiting  []int32
}

// CacheState is a cache's checkpoint image.
type CacheState struct {
	SnapID        uint64
	Lines         []LineState
	Stamp         int64
	Queues        [][]BankItemState
	Mshrs         []MSHRState
	BypassMshrs   []MSHRState
	MshrFree      int
	Retry         []int32
	CombineCur    []uint64
	CombinePrev   []uint64
	CombineSwapAt int64
	LevelStats    [memreq.MaxWalkLevel + 1]Stats
	EpochStats    [memreq.MaxWalkLevel + 1]Stats
	LastRates     [memreq.MaxWalkLevel + 1]float64
	LastValid     [memreq.MaxWalkLevel + 1]bool
	LatSum        [2]uint64
	LatCount      [2]uint64
}

// SetSnapKey assigns the cache's checkpoint identity; the simulator numbers
// its caches in build order. Must be set before the first Submit so fill
// requests carry the right SiteRef.
func (c *Cache) SetSnapKey(id uint64) { c.snapID = id }

// SnapshotState implements engine.Snapshotter; ctx is the *memreq.Table.
func (c *Cache) SnapshotState(ctx any) (any, error) {
	tab, ok := ctx.(*memreq.Table)
	if !ok {
		return nil, fmt.Errorf("cache %s: snapshot context is %T, want *memreq.Table", c.cfg.Name, ctx)
	}
	st := CacheState{
		SnapID:        c.snapID,
		Stamp:         c.stamp,
		MshrFree:      c.mshrFree.Len(),
		CombineSwapAt: c.combineSwapAt,
		LevelStats:    c.levelStats,
		EpochStats:    c.epochStats,
		LastRates:     c.lastRates,
		LastValid:     c.lastValid,
		LatSum:        c.latSum,
		LatCount:      c.latCount,
	}
	st.Lines = make([]LineState, len(c.lines))
	for i := range c.lines {
		ln := &c.lines[i]
		st.Lines[i] = LineState{Tag: ln.tag, Valid: ln.valid, Dirty: ln.dirty, Stamp: ln.stamp}
	}
	st.Queues = make([][]BankItemState, len(c.queues))
	for b := range c.queues {
		q := &c.queues[b]
		for i := 0; i < q.n; i++ {
			it := &q.items[(q.head+i)%len(q.items)]
			st.Queues[b] = append(st.Queues[b], BankItemState{ReadyAt: it.readyAt, Req: tab.Req(it.req)})
		}
	}
	snapMSHR := func(m *mshr) MSHRState {
		ms := MSHRState{LineAddr: m.lineAddr}
		for _, w := range m.waiting {
			ms.Waiting = append(ms.Waiting, tab.Req(w))
		}
		return ms
	}
	for _, m := range c.mshrs {
		st.Mshrs = append(st.Mshrs, snapMSHR(m))
	}
	for _, m := range c.bypassMSHRs {
		st.BypassMshrs = append(st.BypassMshrs, snapMSHR(m))
	}
	for _, r := range c.retry {
		st.Retry = append(st.Retry, tab.Req(r))
	}
	for la := range c.combineCur {
		st.CombineCur = append(st.CombineCur, la)
	}
	for la := range c.combinePrev {
		st.CombinePrev = append(st.CombinePrev, la)
	}
	return st, nil
}

// RestoreState implements engine.Snapshotter; ctx is the *memreq.RestoreTable.
func (c *Cache) RestoreState(ctx any, state any) error {
	rt, ok := ctx.(*memreq.RestoreTable)
	if !ok {
		return fmt.Errorf("cache %s: restore context is %T, want *memreq.RestoreTable", c.cfg.Name, ctx)
	}
	st, ok := state.(CacheState)
	if !ok {
		return fmt.Errorf("cache %s: restore state is %T, want CacheState", c.cfg.Name, state)
	}
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("cache %s: checkpoint has %d lines, cache has %d", c.cfg.Name, len(st.Lines), len(c.lines))
	}
	if len(st.Queues) != len(c.queues) {
		return fmt.Errorf("cache %s: checkpoint has %d banks, cache has %d", c.cfg.Name, len(st.Queues), len(c.queues))
	}
	c.stamp = st.Stamp
	c.combineSwapAt = st.CombineSwapAt
	c.levelStats = st.LevelStats
	c.epochStats = st.EpochStats
	c.lastRates = st.LastRates
	c.lastValid = st.LastValid
	c.latSum = st.LatSum
	c.latCount = st.LatCount
	for i, ls := range st.Lines {
		c.lines[i] = line{tag: ls.Tag, valid: ls.Valid, dirty: ls.Dirty, stamp: ls.Stamp}
	}
	for b := range c.queues {
		q := &c.queues[b]
		q.items = make([]bankItem, max(8, len(st.Queues[b])))
		q.head, q.n = 0, len(st.Queues[b])
		for i, is := range st.Queues[b] {
			q.items[i] = bankItem{readyAt: is.ReadyAt, req: rt.Req(is.Req)}
		}
	}
	buildMSHR := func(ms MSHRState, bypass bool) *mshr {
		m := c.getMSHR(ms.LineAddr, bypass)
		for _, ref := range ms.Waiting {
			m.waiting = append(m.waiting, rt.Req(ref))
		}
		return m
	}
	c.mshrs = make(map[uint64]*mshr, len(st.Mshrs))
	for _, ms := range st.Mshrs {
		c.mshrs[ms.LineAddr] = buildMSHR(ms, false)
	}
	c.bypassMSHRs = make(map[uint64]*mshr, len(st.BypassMshrs))
	for _, ms := range st.BypassMshrs {
		c.bypassMSHRs[ms.LineAddr] = buildMSHR(ms, true)
	}
	c.mshrFree.Refill(st.MshrFree)
	c.retry = c.retry[:0]
	for _, ref := range st.Retry {
		c.retry = append(c.retry, rt.Req(ref))
	}
	if (len(st.CombineCur) > 0 || len(st.CombinePrev) > 0) && c.cfg.WriteCombineWindow <= 0 {
		return fmt.Errorf("cache %s: checkpoint carries write-combine state but combining is disabled", c.cfg.Name)
	}
	if c.cfg.WriteCombineWindow > 0 {
		c.combineCur = make(map[uint64]struct{}, len(st.CombineCur))
		for _, la := range st.CombineCur {
			c.combineCur[la] = struct{}{}
		}
		c.combinePrev = make(map[uint64]struct{}, len(st.CombinePrev))
		for _, la := range st.CombinePrev {
			c.combinePrev[la] = struct{}{}
		}
	}
	return nil
}

// LineAddr returns the line index addr falls in (checkpoint link-pass
// helper: fill requests store the full line-aligned address).
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// FillDone resolves the completion handler for a restored fill or bypass
// fetch targeting lineAddr; the simulator's link pass rebinds
// memreq.SiteCacheFill / SiteCacheBypassFill requests through it. Valid only
// after RestoreState has rebuilt the MSHR maps.
func (c *Cache) FillDone(lineAddr uint64, bypass bool) (func(now int64, fr *memreq.Request), bool) {
	var m *mshr
	var ok bool
	if bypass {
		m, ok = c.bypassMSHRs[lineAddr]
	} else {
		m, ok = c.mshrs[lineAddr]
	}
	if !ok {
		return nil, false
	}
	return m.fillDone, true
}

// ATAState is the bypass policy's checkpoint image.
type ATAState struct {
	Counters    [memreq.MaxWalkLevel + 1]uint64
	BypassLevel [memreq.MaxWalkLevel + 1]bool
}

// State captures the bypass policy for checkpointing.
func (p *ATABypass) State() ATAState {
	return ATAState{Counters: p.counters, BypassLevel: p.bypassLevel}
}

// SetState restores a state captured by State.
func (p *ATABypass) SetState(st ATAState) {
	p.counters = st.Counters
	p.bypassLevel = st.BypassLevel
}
