package workload

import (
	"fmt"
	"slices"
)

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
// identical construction parameters. A cursor the stream could never hold —
// a replay position or compute gap its trace has not, a page past the app's
// pages, a line past the page — is an error, and s is left as it was.
func (s *Stream) SetState(st StreamState) error {
	if err := s.checkState(st); err != nil {
		return err
	}
	s.curPage, s.curLine = st.CurPage, st.CurLine
	s.replayPos, s.replayGap = st.ReplayPos, st.ReplayGap
	if s.replay == nil {
		s.rnd.SetState(st.Rnd)
		s.scatterRnd.SetState(st.ScatterRnd)
	}
	return nil
}

func (s *Stream) checkState(st StreamState) error {
	if n := len(s.replay); n > 0 {
		if st.ReplayPos < 0 || st.ReplayPos >= n {
			return fmt.Errorf("workload: replay cursor %d outside a %d-entry trace", st.ReplayPos, n)
		}
		// The gap is the one the entry before the cursor carries, or zero
		// before the first entry is served.
		if prev := s.replay[(st.ReplayPos+n-1)%n].ComputeGap; st.ReplayGap != prev && (st.ReplayPos != 0 || st.ReplayGap != 0) {
			return fmt.Errorf("workload: replay gap %d, but the entry before cursor %d has gap %d", st.ReplayGap, st.ReplayPos, prev)
		}
		return nil
	}
	if st.ReplayPos != 0 || st.ReplayGap != 0 {
		return fmt.Errorf("workload: replay cursor %d (gap %d) on a synthetic stream", st.ReplayPos, st.ReplayGap)
	}
	if pages := max(s.totPages, s.privStart+s.privLen); st.CurPage >= pages {
		return fmt.Errorf("workload: page cursor %d past the app's %d pages", st.CurPage, pages)
	}
	if st.CurLine >= s.linesPerPage() {
		return fmt.Errorf("workload: line cursor %d past a %d-line page", st.CurLine, s.linesPerPage())
	}
	return nil
}

// Sync returns the stream's shared group-sync object (nil for ungrouped
// profiles and trace replays). Checkpointing deduplicates syncs by pointer in
// stream-construction order, which is deterministic, so snapshot and restore
// enumerate the same sync sequence.
func (s *Stream) Sync() *GroupSync { return s.sync }

// GroupSyncState is one warp group's barrier state and its checkpoint image:
// each member's memory-instruction count. The window is construction-time
// configuration and is not captured, and the floor is the slowest member's
// step count.
type GroupSyncState struct {
	Steps []int64
}

// State captures the group's barrier state.
func (g *GroupSync) State() GroupSyncState { return g.state }

// SetState restores barrier state captured from a group with the same member
// count; another count is an error, and g is left as it was.
func (g *GroupSync) SetState(st GroupSyncState) error {
	if len(st.Steps) != len(g.state.Steps) {
		return fmt.Errorf("workload: group sync image has %d members, the group has %d", len(st.Steps), len(g.state.Steps))
	}
	g.state = st
	g.min = slices.Min(st.Steps)
	return nil
}
