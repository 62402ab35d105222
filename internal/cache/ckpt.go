package cache

import (
	"cmp"
	"fmt"

	"masksim/internal/engine"
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

// MSHRState is one outstanding line fetch with its merged waiters in arrival
// order.
type MSHRState struct {
	LineAddr uint64
	Waiting  []memreq.Request
}

// CacheState is a cache's checkpoint image.
type CacheState struct {
	Lines         []LineState
	Stamp         int64
	Queues        [][]engine.QueueItem[memreq.Request]
	Mshrs         []MSHRState
	BypassMshrs   []MSHRState
	Retry         []engine.QueueItem[memreq.Request]
	CombineCur    []uint64
	CombinePrev   []uint64
	CombineSwapAt int64
	LevelStats    [memreq.MaxWalkLevel + 1]Stats
	EpochStats    [memreq.MaxWalkLevel + 1]Stats
	LastRates     [memreq.MaxWalkLevel + 1]float64
	LastValid     [memreq.MaxWalkLevel + 1]bool
}

// SnapshotState captures the cache's checkpoint image.
func (c *Cache) SnapshotState() CacheState {
	st := CacheState{
		Stamp:         c.stamp,
		Retry:         engine.SnapshotQueue(&c.retry, (*memreq.Request).Image),
		CombineSwapAt: c.combineSwapAt,
		LevelStats:    c.levelStats,
		EpochStats:    c.epochStats,
		LastRates:     c.lastRates,
		LastValid:     c.lastValid,
	}
	st.Lines = make([]LineState, len(c.lines))
	for i := range c.lines {
		ln := &c.lines[i]
		st.Lines[i] = LineState{Tag: ln.tag, Valid: ln.valid, Dirty: ln.dirty, Stamp: ln.stamp}
	}
	st.Queues = make([][]engine.QueueItem[memreq.Request], len(c.queues))
	for b := range c.queues {
		st.Queues[b] = engine.SnapshotQueue(&c.queues[b], (*memreq.Request).Image)
	}
	snapMSHRs := func(set map[uint64]*mshr) []MSHRState {
		var out []MSHRState
		for _, la := range memreq.SortedKeys(set, cmp.Compare[uint64]) {
			ms := MSHRState{LineAddr: la}
			for _, r := range set[la].waiting {
				ms.Waiting = append(ms.Waiting, *r)
			}
			out = append(out, ms)
		}
		return out
	}
	st.Mshrs = snapMSHRs(c.mshrs)
	st.BypassMshrs = snapMSHRs(c.bypassMSHRs)
	st.CombineCur = memreq.SortedKeys(c.combineCur, cmp.Compare[uint64])
	st.CombinePrev = memreq.SortedKeys(c.combinePrev, cmp.Compare[uint64])
	return st
}

// RestoreState restores an image captured by SnapshotState onto a cache built
// from the identical configuration. Everything that can hold one of the
// cache's own line fetches — its retry list, the components below it —
// restores first, so every fill returning to the cache is known by the end.
func (c *Cache) RestoreState(w *memreq.Wiring, st CacheState) error {
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("cache %s: checkpoint has %d lines, cache has %d", c.cfg.Name, len(st.Lines), len(c.lines))
	}
	if len(st.Queues) != len(c.queues) {
		return fmt.Errorf("cache %s: checkpoint has %d banks, cache has %d", c.cfg.Name, len(st.Queues), len(c.queues))
	}
	// The envelope checksum vouches for the bytes, not for the state they
	// encode: an image no run of this cache can reach is rejected.
	if c.cfg.MSHRs > 0 && len(st.Mshrs) > c.cfg.MSHRs {
		return fmt.Errorf("cache %s: checkpoint has %d MSHRs, capacity is %d", c.cfg.Name, len(st.Mshrs), c.cfg.MSHRs)
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
	for i, ls := range st.Lines {
		c.lines[i] = line{tag: ls.Tag, valid: ls.Valid, dirty: ls.Dirty, stamp: ls.Stamp}
	}
	for b, sq := range st.Queues {
		if err := engine.RestoreQueue(&c.queues[b], sq, w.Request); err != nil {
			return fmt.Errorf("cache %s: checkpoint bank %d %w", c.cfg.Name, b, err)
		}
	}
	restoreMSHRs := func(sts []MSHRState) (map[uint64]*mshr, error) {
		set := make(map[uint64]*mshr, len(sts))
		for _, ms := range sts {
			m := c.getMSHR()
			var err error
			if m.waiting, err = w.Requests(m.waiting, ms.Waiting); err != nil {
				return nil, fmt.Errorf("cache %s: MSHR of line %#x: %w", c.cfg.Name, ms.LineAddr, err)
			}
			set[ms.LineAddr] = m
		}
		return set, nil
	}
	var err error
	if c.mshrs, err = restoreMSHRs(st.Mshrs); err != nil {
		return err
	}
	if c.bypassMSHRs, err = restoreMSHRs(st.BypassMshrs); err != nil {
		return err
	}
	if err := engine.RestoreQueue(&c.retry, st.Retry, w.Request); err != nil {
		return fmt.Errorf("cache %s: retry %w", c.cfg.Name, err)
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
	for _, fr := range w.Returning(c.route) {
		set := c.mshrs
		if fr.Tag == tagBypass {
			set = c.bypassMSHRs
		}
		if _, ok := set[fr.Addr>>c.lineShift]; !ok {
			return fmt.Errorf("cache %s: checkpoint fill (addr %#x, tag %d) has no MSHR", c.cfg.Name, fr.Addr, fr.Tag)
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
