package dram

import (
	"fmt"

	"masksim/internal/memreq"
)

// QueuedState is the serializable image of one Queued wrapper (queued or in
// flight).
type QueuedState struct {
	Req     int32
	Arrival int64
	Bank    int
	Row     int64
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
	Channels   []ChannelState
	Class      [2]ClassCounters
	PerAppBus  []uint64
	StartCycle int64
	LastCycle  int64
	QFree      int
}

// SnapshotState implements engine.Snapshotter; ctx is the *memreq.Table.
func (d *DRAM) SnapshotState(ctx any) (any, error) {
	tab, ok := ctx.(*memreq.Table)
	if !ok {
		return nil, fmt.Errorf("dram: snapshot context is %T, want *memreq.Table", ctx)
	}
	enc := func(q *Queued) QueuedState {
		return QueuedState{Req: tab.Req(q.Req), Arrival: q.Arrival, Bank: q.Bank, Row: q.Row, Finish: q.finish}
	}
	st := DRAMState{
		Class:      d.Class,
		PerAppBus:  append([]uint64(nil), d.perAppBus...),
		StartCycle: d.startCycle,
		LastCycle:  d.lastCycle,
		QFree:      d.qFree.Len(),
	}
	st.Channels = make([]ChannelState, len(d.channels))
	for i := range d.channels {
		ch := &d.channels[i]
		cs := &st.Channels[i]
		cs.Banks = append([]Bank(nil), ch.banks...)
		cs.BusReadyAt = ch.busReadyAt
		for _, q := range ch.inflight {
			cs.Inflight = append(cs.Inflight, enc(q))
		}
		cs.Sched = ch.sched.SnapshotQueue(enc)
	}
	return st, nil
}

// RestoreState implements engine.Snapshotter; ctx is the *memreq.RestoreTable.
func (d *DRAM) RestoreState(ctx any, state any) error {
	rt, ok := ctx.(*memreq.RestoreTable)
	if !ok {
		return fmt.Errorf("dram: restore context is %T, want *memreq.RestoreTable", ctx)
	}
	st, ok := state.(DRAMState)
	if !ok {
		return fmt.Errorf("dram: restore state is %T, want DRAMState", state)
	}
	if len(st.Channels) != len(d.channels) {
		return fmt.Errorf("dram: checkpoint has %d channels, model has %d", len(st.Channels), len(d.channels))
	}
	dec := func(qs QueuedState) *Queued {
		q, _ := d.qFree.Get()
		*q = Queued{Req: rt.Req(qs.Req), Arrival: qs.Arrival, Bank: qs.Bank, Row: qs.Row, finish: qs.Finish}
		return q
	}
	d.Class = st.Class
	d.perAppBus = append(d.perAppBus[:0], st.PerAppBus...)
	d.startCycle = st.StartCycle
	d.lastCycle = st.LastCycle
	for i := range d.channels {
		ch := &d.channels[i]
		cs := &st.Channels[i]
		if len(cs.Banks) != len(ch.banks) {
			return fmt.Errorf("dram: channel %d checkpoint has %d banks, model has %d", i, len(cs.Banks), len(ch.banks))
		}
		copy(ch.banks, cs.Banks)
		ch.busReadyAt = cs.BusReadyAt
		ch.setInflight(decQueue(ch.inflight, cs.Inflight, dec))
		if err := ch.sched.RestoreQueue(cs.Sched, dec); err != nil {
			return fmt.Errorf("dram: channel %d: %w", i, err)
		}
	}
	d.qFree.Refill(st.QFree)
	return nil
}

// SnapshotQueue implements Scheduler.
func (s *FRFCFS) SnapshotQueue(enc func(*Queued) QueuedState) SchedState {
	return SchedState{Normal: encQueue(s.queue, enc)}
}

// RestoreQueue implements Scheduler.
func (s *FRFCFS) RestoreQueue(st SchedState, dec func(QueuedState) *Queued) error {
	if len(st.Golden) > 0 || len(st.Silver) > 0 {
		return fmt.Errorf("dram: FR-FCFS checkpoint carries class-queue state")
	}
	if err := checkQueueLen("request", len(st.Normal), s.cap); err != nil {
		return err
	}
	s.queue = decQueue(s.queue, st.Normal, dec)
	return nil
}

// checkQueueLen rejects a checkpointed queue longer than the queue can get
// (capacity 0 = unbounded): the envelope checksum vouches for the bytes, not
// for the state they encode.
func checkQueueLen(what string, n, capacity int) error {
	if capacity > 0 && n > capacity {
		return fmt.Errorf("dram: checkpoint %s queue holds %d requests, capacity is %d", what, n, capacity)
	}
	return nil
}

// SnapshotQueue implements Scheduler.
func (s *FCFS) SnapshotQueue(enc func(*Queued) QueuedState) SchedState {
	return SchedState{Normal: encQueue(s.queue, enc)}
}

// RestoreQueue implements Scheduler.
func (s *FCFS) RestoreQueue(st SchedState, dec func(QueuedState) *Queued) error {
	if len(st.Golden) > 0 || len(st.Silver) > 0 {
		return fmt.Errorf("dram: FCFS checkpoint carries class-queue state")
	}
	if err := checkQueueLen("request", len(st.Normal), s.cap); err != nil {
		return err
	}
	s.queue = decQueue(s.queue, st.Normal, dec)
	return nil
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
func (s *MASKSched) RestoreQueue(st SchedState, dec func(QueuedState) *Queued) error {
	if st.SilverApp >= s.numApps {
		return fmt.Errorf("dram: silver turn app %d out of range (%d apps)", st.SilverApp, s.numApps)
	}
	for _, q := range []struct {
		what     string
		n, limit int
	}{{"golden", len(st.Golden), s.goldenCap}, {"silver", len(st.Silver), s.silverCap}, {"normal", len(st.Normal), s.normalCap}} {
		if err := checkQueueLen(q.what, q.n, q.limit); err != nil {
			return err
		}
	}
	s.golden = decQueue(s.golden, st.Golden, dec)
	s.silver = decQueue(s.silver, st.Silver, dec)
	s.normal = decQueue(s.normal, st.Normal, dec)
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

func decQueue(dst []*Queued, src []QueuedState, dec func(QueuedState) *Queued) []*Queued {
	dst = dst[:0]
	for _, qs := range src {
		dst = append(dst, dec(qs))
	}
	return dst
}
