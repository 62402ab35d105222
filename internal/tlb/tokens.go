package tlb

// TokenPolicy implements MASK's TLB-Fill Tokens (§5.2).
//
// Every warp may probe the shared L2 TLB, but only warps holding a token may
// fill it; fills from token-less warps are redirected to the small bypass
// cache. Tokens are assigned per application in units of warps per core, in
// warp-ID order ("if there are n tokens, the n warps with the lowest warp ID
// values receive tokens"). At each epoch boundary the per-application token
// count adapts to the application's shared-TLB miss rate: a miss rate that
// rose by more than 2% signals contention (shed tokens); one that fell by
// more than 2% signals headroom (grant tokens).
type TokenPolicy struct {
	enabled      bool
	warpsPerCore int
	step         int
	// state is the policy's adaptive state, which a checkpoint writes as it
	// is (State).
	state TokenState
}

// TokenState is the policy's adaptive state and its checkpoint image, each
// list indexed by application.
type TokenState struct {
	// TokensPerCore[app] is the number of token-holding warps on each of the
	// app's cores.
	TokensPerCore []int
	PrevMissRate  []float64
	HavePrev      []bool
	// FirstEpoch disables bypassing during the first epoch, per the paper
	// (footnote 6).
	FirstEpoch bool
	// Dir is each app's current search direction (+1 grant, -1 shed), used
	// when the miss rate is flat: the paper's ±2%-delta rule alone has no
	// gradient to follow once the miss rate plateaus, so the policy keeps
	// probing in its current direction and reverses when an adjustment made
	// the miss rate worse. This converges to the same steady state the
	// paper describes (§7.2) without manual tuning of InitialTokens.
	Dir []int
}

// NewTokenPolicy creates the policy for numApps applications with the given
// warps per core. initialFraction is the paper's InitialTokens parameter
// (evaluated at 80%). If enabled is false, HasToken always returns true and
// Epoch is a no-op, which turns MASK-TLB off.
func NewTokenPolicy(numApps, warpsPerCore int, initialFraction float64, enabled bool) *TokenPolicy {
	p := &TokenPolicy{
		enabled:      enabled,
		warpsPerCore: warpsPerCore,
		step:         warpsPerCore / 16,
		state: TokenState{
			TokensPerCore: make([]int, numApps),
			PrevMissRate:  make([]float64, numApps),
			HavePrev:      make([]bool, numApps),
			FirstEpoch:    true,
			Dir:           make([]int, numApps),
		},
	}
	for i := range p.state.Dir {
		p.state.Dir[i] = -1 // start by probing downward: fewer fill sources
	}
	if p.step < 1 {
		p.step = 1
	}
	init := int(initialFraction * float64(warpsPerCore))
	if init < 1 {
		init = 1
	}
	if init > warpsPerCore {
		init = warpsPerCore
	}
	for i := range p.state.TokensPerCore {
		p.state.TokensPerCore[i] = init
	}
	return p
}

// Enabled reports whether the token mechanism is active.
func (p *TokenPolicy) Enabled() bool { return p.enabled }

// HasToken reports whether the given warp of app currently holds a token.
func (p *TokenPolicy) HasToken(app, warpID int) bool {
	if !p.enabled || p.state.FirstEpoch {
		return true
	}
	if app < 0 || app >= len(p.state.TokensPerCore) {
		return true
	}
	return warpID < p.state.TokensPerCore[app]
}

// Tokens returns app's per-core token count (test/introspection helper).
func (p *TokenPolicy) Tokens(app int) int {
	if app < 0 || app >= len(p.state.TokensPerCore) {
		return p.warpsPerCore
	}
	return p.state.TokensPerCore[app]
}

// Epoch adapts token counts from the per-app shared-TLB miss rates measured
// over the epoch that just ended.
func (p *TokenPolicy) Epoch(missRate []float64) {
	if !p.enabled {
		return
	}
	st := &p.state
	st.FirstEpoch = false
	for app := 0; app < len(st.TokensPerCore) && app < len(missRate); app++ {
		mr := missRate[app]
		if st.HavePrev[app] {
			delta := mr - st.PrevMissRate[app]
			switch {
			case delta > 0.02:
				// The last adjustment made the miss rate worse: reverse
				// course. (The paper reads a rising miss rate as "shed
				// tokens"; as pure feedback control that diverges when the
				// rise was caused by the policy's own previous decrease, so
				// the policy hill-climbs instead — DESIGN.md §5.)
				st.Dir[app] = -st.Dir[app]
				st.TokensPerCore[app] += p.step * st.Dir[app]
			case delta < -0.02:
				// Miss rate fell: keep whatever direction produced this.
				st.TokensPerCore[app] += p.step * st.Dir[app]
			default:
				// Flat miss rate: keep probing in the current direction,
				// but only while the TLB is clearly struggling — in the
				// comfortable region (low miss rate) leave tokens alone.
				if mr > 0.5 {
					st.TokensPerCore[app] += p.step * st.Dir[app]
				}
			}
			if st.TokensPerCore[app] <= 1 {
				st.TokensPerCore[app] = 1
				st.Dir[app] = 1 // bounce off the floor
			}
			if st.TokensPerCore[app] >= p.warpsPerCore {
				st.TokensPerCore[app] = p.warpsPerCore
				st.Dir[app] = -1 // and off the ceiling
			}
		}
		st.PrevMissRate[app] = mr
		st.HavePrev[app] = true
	}
}
