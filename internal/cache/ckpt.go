package cache

import (
	"cmp"
	"fmt"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/mshr"
)

// MSHRState is one outstanding line fetch with its merged waiters in arrival
// order.
type MSHRState struct {
	LineAddr uint64
	Waiting  []memreq.Request
}

// CacheState is a cache's checkpoint image: its counters and line array as
// they are (the lines index-aligned with the set-major array), and the
// requests its queues and MSHRs hold, written inline.
type CacheState struct {
	Counters
	Lines       []Line
	Queues      [][]engine.QueueItem[memreq.Request]
	Mshrs       []MSHRState
	BypassMshrs []MSHRState
	Retry       []engine.QueueItem[memreq.Request]
	CombineCur  []uint64
	CombinePrev []uint64
}

// SnapshotState captures the cache's checkpoint image. The image shares the
// line array with the cache: encode it before the cache ticks again.
func (c *Cache) SnapshotState() CacheState {
	st := CacheState{
		Counters: c.counters,
		Lines:    c.lines,
		Retry:    engine.SnapshotQueue(&c.retry, (*memreq.Request).Image),
	}
	st.Queues = make([][]engine.QueueItem[memreq.Request], len(c.queues))
	for b := range c.queues {
		st.Queues[b] = engine.SnapshotQueue(&c.queues[b], (*memreq.Request).Image)
	}
	st.Mshrs = mshr.Image(&c.mshrs, mshrImage)
	st.BypassMshrs = mshr.Image(&c.bypassMSHRs, mshrImage)
	st.CombineCur = memreq.SortedKeys(c.combineCur, cmp.Compare[uint64])
	st.CombinePrev = memreq.SortedKeys(c.combinePrev, cmp.Compare[uint64])
	return st
}

// mshrImage is the image of one MSHR: its line and its waiters, inline.
func mshrImage(line uint64, _ struct{}, ws []*memreq.Request) MSHRState {
	ms := MSHRState{LineAddr: line}
	for _, r := range ws {
		ms.Waiting = append(ms.Waiting, *r)
	}
	return ms
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
	// One tag valid in two ways of a set is not checked for: a write-back
	// cache reaches that state (a store write-allocates a line whose read
	// fill is still in flight, and the fill installs it again).
	c.counters = st.Counters
	copy(c.lines, st.Lines)
	for b, sq := range st.Queues {
		if err := engine.RestoreQueue(&c.queues[b], w.Now, sq, w.Request); err != nil {
			return fmt.Errorf("cache %s: checkpoint bank %d %w", c.cfg.Name, b, err)
		}
	}
	// The envelope checksum vouches for the bytes, not for the state they
	// encode: an image no run of this cache can reach is rejected.
	restoreMSHRs := func(set *mshrTable, what string, sts []MSHRState) error {
		err := set.Restore(what, len(sts), func(i int, wait func(*memreq.Request)) (uint64, struct{}, error) {
			ms := sts[i]
			for _, img := range ms.Waiting {
				r, err := w.Request(img)
				if err != nil {
					return 0, struct{}{}, fmt.Errorf("MSHR of line %#x: %w", ms.LineAddr, err)
				}
				wait(r)
			}
			return ms.LineAddr, struct{}{}, nil
		})
		if err != nil {
			return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
		}
		return nil
	}
	if err := restoreMSHRs(&c.mshrs, "MSHRs", st.Mshrs); err != nil {
		return err
	}
	if err := restoreMSHRs(&c.bypassMSHRs, "bypass MSHRs", st.BypassMshrs); err != nil {
		return err
	}
	if err := engine.RestoreQueue(&c.retry, w.Now, st.Retry, w.Request); err != nil {
		return fmt.Errorf("cache %s: retry %w", c.cfg.Name, err)
	}
	if (len(st.CombineCur) > 0 || len(st.CombinePrev) > 0) && c.cfg.WriteCombineWindow <= 0 {
		return fmt.Errorf("cache %s: checkpoint carries write-combine state but combining is disabled", c.cfg.Name)
	}
	for _, la := range st.CombineCur {
		c.combineCur[la] = struct{}{}
	}
	for _, la := range st.CombinePrev {
		c.combinePrev[la] = struct{}{}
	}
	for _, fr := range w.Returning(c.route) {
		set := &c.mshrs
		if fr.Tag == tagBypass {
			set = &c.bypassMSHRs
		}
		if _, ok := set.Find(fr.Addr >> c.lineShift); !ok {
			return fmt.Errorf("cache %s: checkpoint fill (addr %#x, tag %d) has no MSHR", c.cfg.Name, fr.Addr, fr.Tag)
		}
	}
	return nil
}

// State captures the bypass policy for checkpointing.
func (p *ATABypass) State() ATAState { return p.state }

// SetState restores a state captured by State.
func (p *ATABypass) SetState(st ATAState) { p.state = st }
