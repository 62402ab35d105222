package cache

import (
	"cmp"
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
	Req     memreq.RequestState
}

// MSHRState is one outstanding line fetch with its merged waiters in arrival
// order.
type MSHRState struct {
	LineAddr uint64
	Waiting  []memreq.RequestState
}

// CacheState is a cache's checkpoint image.
type CacheState struct {
	Lines         []LineState
	Stamp         int64
	Queues        [][]BankItemState
	Mshrs         []MSHRState
	BypassMshrs   []MSHRState
	Retry         []memreq.RequestState
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

// SnapshotState captures the cache's checkpoint image; w names its requests'
// sinks.
func (c *Cache) SnapshotState(w *memreq.Wiring) CacheState {
	st := CacheState{
		Stamp:         c.stamp,
		Retry:         w.Images(nil, c.retry),
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
			st.Queues[b] = append(st.Queues[b], BankItemState{ReadyAt: it.readyAt, Req: w.Image(it.req)})
		}
	}
	snapMSHRs := func(set map[uint64]*mshr) []MSHRState {
		var out []MSHRState
		for _, la := range memreq.SortedKeys(set, cmp.Compare[uint64]) {
			out = append(out, MSHRState{LineAddr: la, Waiting: w.Images(nil, set[la].waiting)})
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
	c.latSum = st.LatSum
	c.latCount = st.LatCount
	for i, ls := range st.Lines {
		c.lines[i] = line{tag: ls.Tag, valid: ls.Valid, dirty: ls.Dirty, stamp: ls.Stamp}
	}
	for b, sq := range st.Queues {
		if c.cfg.QueueCap > 0 && len(sq) > c.cfg.QueueCap {
			return fmt.Errorf("cache %s: checkpoint bank %d queues %d requests, capacity is %d", c.cfg.Name, b, len(sq), c.cfg.QueueCap)
		}
		q := &c.queues[b]
		q.items = make([]bankItem, max(8, len(sq)))
		q.head, q.n = 0, len(sq)
		for i, is := range sq {
			r, err := w.Request(is.Req)
			if err != nil {
				return fmt.Errorf("cache %s: bank %d: %w", c.cfg.Name, b, err)
			}
			q.items[i] = bankItem{readyAt: is.ReadyAt, req: r}
		}
	}
	restoreMSHRs := func(sts []MSHRState, bypass bool) (map[uint64]*mshr, error) {
		set := make(map[uint64]*mshr, len(sts))
		for _, ms := range sts {
			m := c.getMSHR(ms.LineAddr, bypass)
			var err error
			if m.waiting, err = w.Requests(m.waiting, ms.Waiting); err != nil {
				return nil, fmt.Errorf("cache %s: MSHR of line %#x: %w", c.cfg.Name, ms.LineAddr, err)
			}
			set[ms.LineAddr] = m
		}
		return set, nil
	}
	var err error
	if c.mshrs, err = restoreMSHRs(st.Mshrs, false); err != nil {
		return err
	}
	if c.bypassMSHRs, err = restoreMSHRs(st.BypassMshrs, true); err != nil {
		return err
	}
	if c.retry, err = w.Requests(c.retry[:0], st.Retry); err != nil {
		return fmt.Errorf("cache %s: retry list: %w", c.cfg.Name, err)
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
	for _, fr := range w.Returning(c) {
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
