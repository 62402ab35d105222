package workload

// Checkpoint support: serializable images of the mutable stream state.
//
// A Stream's behavior is a pure function of its construction parameters
// (Profile, base, sizes, seed — all derivable from the simulator config) plus
// the mutable fields captured here, so restore rebuilds streams through the
// normal factories and then overwrites just this state.

// StreamState is the serializable image of one warp stream's mutable state.
// Synthetic streams use the RNG states and page/line cursors; trace-replay
// streams use the replay cursor and pending compute gap. Shared GroupSync
// state is captured separately (see GroupSyncState) because several streams
// reference one sync object.
type StreamState struct {
	Rnd        uint64
	ScatterRnd uint64
	CurPage    uint64
	CurLine    uint64
	ReplayPos  int
	ReplayGap  int
}

// State captures the stream's mutable state.
func (s *Stream) State() StreamState {
	st := StreamState{
		CurPage:   s.curPage,
		CurLine:   s.curLine,
		ReplayPos: s.replayPos,
		ReplayGap: s.replayGap,
	}
	if s.replay == nil {
		st.Rnd, st.ScatterRnd = s.rnd.State(), s.scatterRnd.State()
	}
	return st
}

// SetState restores a state captured by State onto a stream built with the
// identical construction parameters.
func (s *Stream) SetState(st StreamState) {
	s.curPage, s.curLine = st.CurPage, st.CurLine
	s.replayPos, s.replayGap = st.ReplayPos, st.ReplayGap
	if s.replay == nil {
		s.rnd.SetState(st.Rnd)
		s.scatterRnd.SetState(st.ScatterRnd)
	}
}

// Sync returns the stream's shared group-sync object (nil for ungrouped
// profiles and trace replays). Checkpointing deduplicates syncs by pointer in
// stream-construction order, which is deterministic, so snapshot and restore
// enumerate the same sync sequence.
func (s *Stream) Sync() *GroupSync { return s.sync }

// GroupSyncState is the serializable image of one warp group's barrier state.
// The window is construction-time configuration and is not captured.
type GroupSyncState struct {
	Steps []int64
	Min   int64
}

// State captures the group's barrier state.
func (g *GroupSync) State() GroupSyncState {
	return GroupSyncState{Steps: append([]int64(nil), g.steps...), Min: g.min}
}

// SetState restores barrier state captured from a group with the same member
// count.
func (g *GroupSync) SetState(st GroupSyncState) {
	copy(g.steps, st.Steps)
	g.min = st.Min
}
