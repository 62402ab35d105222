package ptw

import (
	"masksim/internal/engine"
	"masksim/internal/memreq"
)

// FaultUnit implements the demand-paging extension the paper defers to
// future work (§5.5, citing Pascal-style demand paging and Zheng et al.).
//
// When enabled, a page's first touch raises a major fault: the walk that
// discovered it completes only after the fault service latency (the cost of
// transferring the page over the host interconnect), and at most
// Concurrency faults are serviced at once — queueing beyond that models the
// host driver's fault-handling serialization. Subsequent touches of a
// resident page proceed normally. The simulator pre-builds page tables for
// address arithmetic; residency is what faults track.
type FaultUnit struct {
	// Latency is the per-fault service time in core cycles (tens of
	// microseconds on real hardware).
	Latency int64
	// Concurrency bounds simultaneous fault services.
	Concurrency int

	resident map[memreq.PageKey]bool
	inflight []*pendingFault
	queue    engine.Queue[*pendingFault]

	// sink receives the held walks of a completed fault; SetFaultUnit sets it
	// to the walker.
	sink FaultSink

	Stats FaultStats
}

// FaultStats counts demand-paging activity.
type FaultStats struct {
	Faults    uint64
	LatSum    uint64
	Completed uint64
}

// AvgLatency returns mean fault latency including queueing.
func (s FaultStats) AvgLatency() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.LatSum) / float64(s.Completed)
}

// Fault is a page fault's plain state, which the fault unit ticks and a
// checkpoint writes as it is (PendingFaultState): the page, when its first
// touch faulted, and when its service completes (0 while queued).
type Fault struct {
	Key    memreq.PageKey
	Start  int64
	DoneAt int64
}

// pendingFault is one in-flight or queued page fault with the walks it
// holds.
type pendingFault struct {
	Fault
	notify []HeldWalk
}

// HeldWalk is the result of a finished walk, held until its page is
// resident: everything finishing the walk needs, as plain data. Tr is the
// translation of an OriginTrans walk, zero for any other.
type HeldWalk struct {
	Start  int64
	Origin WalkOrigin
	AppID  int
	ASID   uint8
	VPN    uint64
	Tr     memreq.Trans
}

// FaultSink receives the held walks of a completed fault (the walker).
// Deliverable reports whether h still has somewhere to deliver its result; a
// restore checks every held walk with it.
type FaultSink interface {
	FaultDone(now int64, h HeldWalk)
	Deliverable(h HeldWalk) bool
}

// NewFaultUnit builds a fault unit.
func NewFaultUnit(latency int64, concurrency int) *FaultUnit {
	if concurrency < 1 {
		concurrency = 1
	}
	return &FaultUnit{
		Latency:     latency,
		Concurrency: concurrency,
		resident:    make(map[memreq.PageKey]bool),
	}
}

// Touch reports whether (asid, vpn) is resident. If not, h is held and handed
// to the sink when the fault completes; Touch returns false in that case.
func (f *FaultUnit) Touch(now int64, asid uint8, vpn uint64, h HeldWalk) bool {
	key := memreq.PageKey{ASID: asid, VPN: vpn}
	if f.resident[key] {
		return true
	}
	// Merge into an in-flight or queued fault for the same page.
	if p := f.pending(key); p != nil {
		p.notify = append(p.notify, h)
		return false
	}
	f.Stats.Faults++
	p := &pendingFault{Fault: Fault{Key: key, Start: now}, notify: []HeldWalk{h}}
	if len(f.inflight) < f.Concurrency {
		p.DoneAt = now + f.Latency
		f.inflight = append(f.inflight, p)
	} else {
		f.queue.Push(now, p)
	}
	return false
}

// pending returns the in-flight or queued fault of key, or nil.
func (f *FaultUnit) pending(key memreq.PageKey) *pendingFault {
	for _, p := range f.inflight {
		if p.Key == key {
			return p
		}
	}
	for i := 0; i < f.queue.Len(); i++ {
		if p := f.queue.At(i); p.Key == key {
			return p
		}
	}
	return nil
}

// Tick completes due faults and starts queued ones.
func (f *FaultUnit) Tick(now int64) {
	nkeep := 0
	for _, p := range f.inflight {
		if p.DoneAt <= now {
			f.resident[p.Key] = true
			f.Stats.Completed++
			f.Stats.LatSum += uint64(now - p.Start)
			for _, h := range p.notify {
				f.sink.FaultDone(now, h)
			}
		} else {
			f.inflight[nkeep] = p
			nkeep++
		}
	}
	f.inflight = f.inflight[:nkeep]
	for len(f.inflight) < f.Concurrency {
		p, ok := f.queue.Pop(now)
		if !ok {
			break
		}
		p.DoneAt = now + f.Latency
		f.inflight = append(f.inflight, p)
	}
}

// NextEvent implements engine.EventSource: the earliest completion among
// in-flight faults, now if a queued fault could start immediately, NoEvent
// when idle. Queued faults behind a full in-flight set can only start after
// some in-flight fault completes, so the completion horizon covers them.
func (f *FaultUnit) NextEvent(now int64) int64 {
	h := engine.NoEvent
	if len(f.inflight) < f.Concurrency {
		h = f.queue.NextReady(now)
	}
	for _, p := range f.inflight {
		if p.DoneAt < h {
			h = p.DoneAt
		}
	}
	return h
}

// Outstanding returns in-flight plus queued fault counts.
func (f *FaultUnit) Outstanding() int { return len(f.inflight) + f.queue.Len() }

// SetFaultUnit attaches demand paging to the walker: a completed walk for a
// non-resident page is held until its fault is serviced.
func (w *Walker) SetFaultUnit(f *FaultUnit) { w.faults = f; f.sink = w }
