package sim

// TraceSample is one point of the optional time series (Config.TraceInterval):
// windowed IPC, shared-TLB behaviour, and adaptive-mechanism state. The
// cmd/masksim -trace flag writes these as CSV for plotting; tests use them to
// observe convergence of the token policy.
type TraceSample struct {
	Cycle int64
	// IPC is the system IPC over the window ending at Cycle.
	IPC float64
	// L2TLBMissRate is the shared TLB miss rate over the window (0 when the
	// design has no shared TLB or the window saw no accesses).
	L2TLBMissRate float64
	// ConcurrentWalks is the walker's in-flight count at the sample.
	ConcurrentWalks int
	// TokensPerApp is each app's per-core TLB-Fill Token count.
	TokensPerApp []int
	// OutstandingFaults counts demand-paging faults in service or queued.
	OutstandingFaults int
}

// traceState accumulates window deltas between samples; a window starts at
// the last sample's cycle.
type traceState struct {
	samples []TraceSample

	lastInstr    uint64
	lastL2Access uint64
	lastL2Miss   uint64
}

// traceTick is registered when Config.TraceInterval > 0.
func (s *Simulator) traceTick(now int64) {
	iv := s.cfg.TraceInterval
	if iv <= 0 || now == 0 || now%iv != 0 {
		return
	}
	st := &s.trace

	var instr uint64
	for _, c := range s.cores {
		instr += c.Stats.Instructions
	}
	sample := TraceSample{Cycle: now}
	start := int64(0)
	if n := len(st.samples); n > 0 {
		start = st.samples[n-1].Cycle
	}
	if dc := now - start; dc > 0 {
		sample.IPC = float64(instr-st.lastInstr) / float64(dc)
	}
	if s.l2tlb != nil {
		tot := s.l2tlb.TotalStats()
		acc := tot.Accesses - st.lastL2Access
		miss := tot.Misses - st.lastL2Miss
		if acc > 0 {
			sample.L2TLBMissRate = float64(miss) / float64(acc)
		}
		st.lastL2Access = tot.Accesses
		st.lastL2Miss = tot.Misses
	}
	if !s.cfg.Ideal {
		sample.ConcurrentWalks = s.walker.ActiveWalks()
	}
	if s.tokens != nil && s.tokens.Enabled() {
		for app := range s.apps {
			sample.TokensPerApp = append(sample.TokensPerApp, s.tokens.Tokens(app))
		}
	}
	if s.faults != nil {
		sample.OutstandingFaults = s.faults.Outstanding()
	}
	st.lastInstr = instr
	st.samples = append(st.samples, sample)
}
