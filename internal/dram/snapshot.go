package dram

// QueueClass names one of a channel scheduler's three queues. FR-FCFS and
// FCFS use QNormal alone; the MASK Address-Space-Aware scheduler uses all
// three (§5.4).
type QueueClass uint8

const (
	QGolden QueueClass = iota
	QSilver
	QNormal
)

// ChannelSnapshot is one channel's queue occupancy at a sample point.
type ChannelSnapshot struct {
	// Golden/Silver/Normal is the class breakdown of queued requests.
	// FR-FCFS and FCFS report everything as Normal.
	Golden, Silver, Normal int
	// PerBank counts queued requests per bank.
	PerBank []int
	// Inflight counts issued-but-incomplete transfers.
	Inflight int
}

// Total returns the channel's queued request count.
func (c ChannelSnapshot) Total() int { return c.Golden + c.Silver + c.Normal }

// QueueSnapshot fills dst with per-channel queue occupancy (per-bank counts
// and golden/silver/normal breakdown) and returns it. dst is reused when its
// capacity allows, so an epoch sampler can call this allocation-free after
// the first sample.
func (d *DRAM) QueueSnapshot(dst []ChannelSnapshot) []ChannelSnapshot {
	if cap(dst) < len(d.channels) {
		dst = make([]ChannelSnapshot, len(d.channels))
	}
	dst = dst[:len(d.channels)]
	for i := range d.channels {
		ch := &d.channels[i]
		cs := &dst[i]
		cs.Inflight = len(ch.inflight)
		if cap(cs.PerBank) < len(ch.banks) {
			cs.PerBank = make([]int, len(ch.banks))
		}
		cs.PerBank = cs.PerBank[:len(ch.banks)]
		clear(cs.PerBank)
		cs.Golden, cs.Silver, cs.Normal = len(ch.sched.q[QGolden]), len(ch.sched.q[QSilver]), len(ch.sched.q[QNormal])
		for _, queue := range ch.sched.q {
			for _, q := range queue {
				cs.PerBank[q.Bank]++
			}
		}
	}
	return dst
}
