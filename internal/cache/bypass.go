package cache

import "masksim/internal/memreq"

// ATABypass implements MASK's Address-Translation-Aware L2 Bypass (§5.3).
//
// The policy compares, per page-table level, the L2 cache hit rate of
// translation requests against the hit rate of data demand requests, both
// measured over the previous epoch. A translation request from level L
// bypasses the L2 cache when level L's hit rate fell below the data hit rate.
//
// Because fully bypassed levels would stop producing hit-rate samples (their
// requests never probe), every sampleEvery-th otherwise-bypassed request
// still takes the normal cached path. This keeps the per-level estimate fresh
// so the policy can revert when a level's locality improves — the paper
// observes (§5.3) that level hit rates change over time, which is exactly why
// a static bypass scheme is ineffective.
type ATABypass struct {
	cache *Cache
	// sampleEvery controls the dueling-sample rate; 0 disables sampling.
	sampleEvery uint64
	// state is the policy's counters and per-epoch decisions, which a
	// checkpoint writes as they are (State).
	state ATAState
}

// ATAState is the bypass policy's adaptive state and its checkpoint image.
type ATAState struct {
	// Counters counts each level's otherwise-bypassed requests, for the
	// dueling samples.
	Counters [memreq.MaxWalkLevel + 1]uint64
	// BypassLevel is each level's decision, cached per epoch and refreshed
	// by Roll.
	BypassLevel [memreq.MaxWalkLevel + 1]bool
}

// NewATABypass builds the policy over c and installs itself as c's bypass
// predicate.
func NewATABypass(c *Cache) *ATABypass {
	p := &ATABypass{cache: c, sampleEvery: 32}
	c.SetBypass(p.ShouldBypass)
	return p
}

// Roll recomputes the per-level bypass decisions from the epoch that just
// ended and starts a new measurement epoch. Call on epoch boundaries.
func (p *ATABypass) Roll() {
	p.cache.EpochRoll()
	dataRate, dataOK := p.cache.LastEpochHitRate(0)
	for lvl := 1; lvl <= memreq.MaxWalkLevel; lvl++ {
		rate, ok := p.cache.LastEpochHitRate(lvl)
		// Bypass only when both rates have been observed and the level's
		// translation hit rate is below the data demand hit rate.
		p.state.BypassLevel[lvl] = dataOK && ok && rate < dataRate
	}
}

// ShouldBypass reports whether r should skip the L2 cache.
func (p *ATABypass) ShouldBypass(r *memreq.Request) bool {
	if r.Class != memreq.Translation || r.WalkLevel == 0 {
		return false
	}
	lvl := int(r.WalkLevel)
	if lvl > memreq.MaxWalkLevel {
		lvl = memreq.MaxWalkLevel
	}
	if !p.state.BypassLevel[lvl] {
		return false
	}
	if p.sampleEvery > 0 {
		p.state.Counters[lvl]++
		if p.state.Counters[lvl]%p.sampleEvery == 0 {
			return false // dueling sample keeps the estimate fresh
		}
	}
	return true
}
