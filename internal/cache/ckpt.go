package cache

import (
	"fmt"
	"slices"

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

// SnapshotState implements engine.Snapshotter; ctx is the *memreq.Table.
func (c *Cache) SnapshotState(ctx any) (any, error) {
	tab, ok := ctx.(*memreq.Table)
	if !ok {
		return nil, fmt.Errorf("cache %s: snapshot context is %T, want *memreq.Table", c.cfg.Name, ctx)
	}
	st := CacheState{
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
	// Map-backed sets are written in key order, so equal states encode
	// equally and request indices do not depend on map iteration.
	snapMSHRs := func(set map[uint64]*mshr) []MSHRState {
		var out []MSHRState
		for _, la := range sortedKeys(set) {
			ms := MSHRState{LineAddr: la}
			for _, w := range set[la].waiting {
				ms.Waiting = append(ms.Waiting, tab.Req(w))
			}
			out = append(out, ms)
		}
		return out
	}
	st.Mshrs = snapMSHRs(c.mshrs)
	st.BypassMshrs = snapMSHRs(c.bypassMSHRs)
	for _, r := range c.retry {
		st.Retry = append(st.Retry, tab.Req(r))
	}
	st.CombineCur = sortedKeys(c.combineCur)
	st.CombinePrev = sortedKeys(c.combinePrev)
	return st, nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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
	// The envelope checksum vouches for the bytes, not for the state they
	// encode: an image no run of this cache can reach is rejected whole.
	if c.cfg.MSHRs > 0 && len(st.Mshrs) > c.cfg.MSHRs {
		return fmt.Errorf("cache %s: checkpoint has %d MSHRs, capacity is %d", c.cfg.Name, len(st.Mshrs), c.cfg.MSHRs)
	}
	for b, q := range st.Queues {
		if c.cfg.QueueCap > 0 && len(q) > c.cfg.QueueCap {
			return fmt.Errorf("cache %s: checkpoint bank %d queues %d requests, capacity is %d", c.cfg.Name, b, len(q), c.cfg.QueueCap)
		}
	}
	// One tag valid in two ways of a set is not checked for: a write-back
	// cache reaches that state (a store write-allocates a line whose read
	// fill is still in flight, and the fill installs it again).
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
	for _, fr := range rt.Returning(c) {
		set := c.mshrs
		if fr.Tag == tagBypass {
			set = c.bypassMSHRs
		}
		if _, ok := set[fr.Addr>>c.lineShift]; !ok {
			return fmt.Errorf("cache %s: checkpoint fill %d (addr %#x, tag %d) has no MSHR", c.cfg.Name, fr.ID, fr.Addr, fr.Tag)
		}
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
