package dram

import (
	"fmt"

	"masksim/internal/memreq"
)

// QueuedState is the serializable image of one Queued wrapper (queued or in
// flight). Its bank and row are the request address's (DRAM.Map).
type QueuedState struct {
	Req     memreq.Request
	Arrival int64
	Finish  int64
}

// SchedState is the serializable image of a channel scheduler's queues.
// FR-FCFS and FCFS use only Normal; MASK uses all three plus the silver turn.
// Queue slices preserve arrival order.
type SchedState struct {
	Golden []QueuedState
	Silver []QueuedState
	Normal []QueuedState

	SilverTurn
}

// ChannelState is one channel's checkpoint image.
type ChannelState struct {
	Banks      []Bank
	BusReadyAt int64
	Inflight   []QueuedState
	Sched      SchedState
}

// DRAMState is the memory subsystem's checkpoint image.
type DRAMState struct {
	Channels  []ChannelState
	Class     [2]ClassCounters
	PerAppBus []uint64
}

// SnapshotState captures the memory subsystem's checkpoint image.
func (d *DRAM) SnapshotState() DRAMState {
	enc := func(q *Queued) QueuedState {
		return QueuedState{Req: *q.Req, Arrival: q.Arrival, Finish: q.finish}
	}
	st := DRAMState{
		Class:     d.Class,
		PerAppBus: append([]uint64(nil), d.perAppBus...),
	}
	st.Channels = make([]ChannelState, len(d.channels))
	for i := range d.channels {
		ch := &d.channels[i]
		cs := &st.Channels[i]
		cs.Banks = append([]Bank(nil), ch.banks...)
		cs.BusReadyAt = ch.busReadyAt
		cs.Inflight = encQueue(ch.inflight, enc)
		cs.Sched = ch.sched.snapshot(enc)
	}
	return st
}

// RestoreState restores an image captured by SnapshotState onto a model
// built from the identical configuration.
func (d *DRAM) RestoreState(w *memreq.Wiring, st DRAMState) error {
	if len(st.Channels) != len(d.channels) {
		return fmt.Errorf("dram: checkpoint has %d channels, model has %d", len(st.Channels), len(d.channels))
	}
	dec := func(qs QueuedState) (*Queued, error) {
		r, err := w.Request(qs.Req)
		if err != nil {
			return nil, err
		}
		_, bank, row := d.Map(r.Addr)
		q := d.qFree.Get()
		*q = Queued{Req: r, Arrival: qs.Arrival, Bank: bank, Row: row, finish: qs.Finish}
		return q, nil
	}
	if len(st.PerAppBus) != len(d.perAppBus) {
		return fmt.Errorf("dram: checkpoint counts bus cycles of %d apps, model has %d", len(st.PerAppBus), len(d.perAppBus))
	}
	d.Class = st.Class
	copy(d.perAppBus, st.PerAppBus)
	for i := range d.channels {
		ch := &d.channels[i]
		cs := &st.Channels[i]
		if len(cs.Banks) != len(ch.banks) {
			return fmt.Errorf("dram: channel %d checkpoint has %d banks, model has %d", i, len(cs.Banks), len(ch.banks))
		}
		copy(ch.banks, cs.Banks)
		ch.busReadyAt = cs.BusReadyAt
		inflight, err := decQueue("in-flight", ch.inflight, cs.Inflight, 0, dec)
		if err != nil {
			return fmt.Errorf("dram: channel %d: %w", i, err)
		}
		ch.setInflight(inflight)
		if err := ch.sched.restore(cs.Sched, dec); err != nil {
			return fmt.Errorf("dram: channel %d: %w", i, err)
		}
	}
	return nil
}

// snapshot captures the scheduler's queues and silver turn.
func (s *sched) snapshot(enc func(*Queued) QueuedState) SchedState {
	return SchedState{
		Golden:     encQueue(s.q[QGolden], enc),
		Silver:     encQueue(s.q[QSilver], enc),
		Normal:     encQueue(s.q[QNormal], enc),
		SilverTurn: s.turn,
	}
}

// restore adopts an image captured by snapshot under the same SchedConfig.
// Beyond each queue's capacity it checks the silver turn: an app this
// scheduler has and a quota that is not negative. FR-FCFS and FCFS images
// have neither class queues nor a turn.
func (s *sched) restore(st SchedState, dec func(QueuedState) (*Queued, error)) error {
	switch {
	case s.Policy != MASK && (len(st.Golden) > 0 || len(st.Silver) > 0 || st.SilverApp != 0 || st.SilverQuota != 0):
		return fmt.Errorf("dram: %v checkpoint carries class-queue state", s.Policy)
	case st.SilverApp < 0 || st.SilverApp >= s.Apps || st.SilverQuota < 0:
		return fmt.Errorf("dram: silver turn (app %d, quota %d) out of range (%d apps)", st.SilverApp, st.SilverQuota, s.Apps)
	}
	names := [3]string{QGolden: "golden", QSilver: "silver", QNormal: "normal"}
	if s.Policy != MASK {
		names[QNormal] = "request"
	}
	for c, src := range [3][]QueuedState{st.Golden, st.Silver, st.Normal} {
		var err error
		if s.q[c], err = decQueue(names[c], s.q[c], src, s.caps[c], dec); err != nil {
			return err
		}
	}
	s.turn = st.SilverTurn
	return nil
}

func encQueue(queue []*Queued, enc func(*Queued) QueuedState) []QueuedState {
	var out []QueuedState
	for _, q := range queue {
		out = append(out, enc(q))
	}
	return out
}

// decQueue rebuilds a queue from its image into dst's array. A queue longer
// than it can get (capacity 0 = unbounded) is rejected: the envelope checksum
// vouches for the bytes, not for the state they encode.
func decQueue(what string, dst []*Queued, src []QueuedState, capacity int, dec func(QueuedState) (*Queued, error)) ([]*Queued, error) {
	dst = dst[:0]
	if capacity > 0 && len(src) > capacity {
		return dst, fmt.Errorf("dram: checkpoint %s queue holds %d requests, capacity is %d", what, len(src), capacity)
	}
	for _, qs := range src {
		q, err := dec(qs)
		if err != nil {
			return dst, err
		}
		dst = append(dst, q)
	}
	return dst, nil
}
