package dram

import (
	"fmt"

	"masksim/internal/memreq"
)

// QueuedState is the serializable image of one Queued wrapper (queued or in
// flight). Its bank and row are the request address's (DRAM.Map).
type QueuedState struct {
	Req     memreq.RequestState
	Arrival int64
	Finish  int64
}

// SchedState is the serializable image of any built-in scheduler's queues.
// FR-FCFS and FCFS use only Normal; MASKSched uses all three plus the silver
// turn. Queue slices preserve arrival order.
type SchedState struct {
	Golden []QueuedState
	Silver []QueuedState
	Normal []QueuedState

	SilverApp   int
	SilverQuota int
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

// SnapshotState captures the memory subsystem's checkpoint image; w names
// its requests' sinks.
func (d *DRAM) SnapshotState(w *memreq.Wiring) DRAMState {
	enc := func(q *Queued) QueuedState {
		return QueuedState{Req: w.Image(q.Req), Arrival: q.Arrival, Finish: q.finish}
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
		cs.Sched = ch.sched.SnapshotQueue(enc)
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
		q, _ := d.qFree.Get()
		*q = Queued{Req: r, Arrival: qs.Arrival, Bank: bank, Row: row, finish: qs.Finish}
		return q, nil
	}
	d.Class = st.Class
	d.perAppBus = append(d.perAppBus[:0], st.PerAppBus...)
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
		if err := ch.sched.RestoreQueue(cs.Sched, dec); err != nil {
			return fmt.Errorf("dram: channel %d: %w", i, err)
		}
	}
	return nil
}

// SnapshotQueue implements Scheduler.
func (s *FRFCFS) SnapshotQueue(enc func(*Queued) QueuedState) SchedState {
	return SchedState{Normal: encQueue(s.queue, enc)}
}

// RestoreQueue implements Scheduler.
func (s *FRFCFS) RestoreQueue(st SchedState, dec func(QueuedState) (*Queued, error)) (err error) {
	s.queue, err = restorePlain("FR-FCFS", s.queue, s.cap, st, dec)
	return err
}

// SnapshotQueue implements Scheduler.
func (s *FCFS) SnapshotQueue(enc func(*Queued) QueuedState) SchedState {
	return SchedState{Normal: encQueue(s.queue, enc)}
}

// RestoreQueue implements Scheduler.
func (s *FCFS) RestoreQueue(st SchedState, dec func(QueuedState) (*Queued, error)) (err error) {
	s.queue, err = restorePlain("FCFS", s.queue, s.cap, st, dec)
	return err
}

// restorePlain restores the one queue of a scheduler without class queues.
func restorePlain(name string, dst []*Queued, capacity int, st SchedState, dec func(QueuedState) (*Queued, error)) ([]*Queued, error) {
	if len(st.Golden) > 0 || len(st.Silver) > 0 {
		return dst, fmt.Errorf("dram: %s checkpoint carries class-queue state", name)
	}
	return decQueue("request", dst, st.Normal, capacity, dec)
}

// SnapshotQueue implements Scheduler.
func (s *MASKSched) SnapshotQueue(enc func(*Queued) QueuedState) SchedState {
	return SchedState{
		Golden:      encQueue(s.golden, enc),
		Silver:      encQueue(s.silver, enc),
		Normal:      encQueue(s.normal, enc),
		SilverApp:   s.silverApp,
		SilverQuota: s.silverQuota,
	}
}

// RestoreQueue implements Scheduler.
func (s *MASKSched) RestoreQueue(st SchedState, dec func(QueuedState) (*Queued, error)) error {
	if st.SilverApp >= s.numApps {
		return fmt.Errorf("dram: silver turn app %d out of range (%d apps)", st.SilverApp, s.numApps)
	}
	var err error
	if s.golden, err = decQueue("golden", s.golden, st.Golden, s.goldenCap, dec); err != nil {
		return err
	}
	if s.silver, err = decQueue("silver", s.silver, st.Silver, s.silverCap, dec); err != nil {
		return err
	}
	if s.normal, err = decQueue("normal", s.normal, st.Normal, s.normalCap, dec); err != nil {
		return err
	}
	s.silverApp = st.SilverApp
	s.silverQuota = st.SilverQuota
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
