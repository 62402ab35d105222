package metrics

// HistogramState is a histogram's checkpoint image.
type HistogramState struct {
	Counts []uint64
	Count  uint64
	Min    float64
	Max    float64
}

// State captures the histogram for checkpointing.
func (h *Histogram) State() HistogramState {
	return HistogramState{
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Min:    h.min,
		Max:    h.max,
	}
}

// SetState restores a state captured by State.
func (h *Histogram) SetState(st HistogramState) {
	copy(h.counts, st.Counts)
	h.count, h.min, h.max = st.Count, st.Min, st.Max
}
