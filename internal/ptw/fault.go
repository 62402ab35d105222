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
	inflight []PendingFault
	queue    engine.Queue[PendingFault]

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

// Fault is a page fault's plain state: the page, when its first touch
// faulted, and when its service completes (0 while queued).
type Fault struct {
	Key    memreq.PageKey
	Start  int64
	DoneAt int64
}

// PendingFault is one in-flight or queued page fault with the walks it
// holds, a value the fault unit holds and a checkpoint writes as it is.
type PendingFault struct {
	Fault
	Notify []HeldWalk
}

// HeldWalk is the result of a finished walk of the fault's page, held until
// that page is resident: everything else finishing the walk needs. Core is
// the core of an OriginTrans walk's L1 TLB miss.
type HeldWalk struct {
	Start  int64
	Origin WalkOrigin
	AppID  int
	Core   int32
}

// FaultSink receives the held walks of a completed fault (the walker).
// Deliverable reports whether h, held for page key, still has somewhere to
// deliver its result; a restore checks every held walk with it.
type FaultSink interface {
	FaultDone(now int64, key memreq.PageKey, h HeldWalk)
	Deliverable(key memreq.PageKey, h HeldWalk) bool
}

// NewFaultUnit builds a fault unit servicing up to concurrency (>= 1) faults
// at once.
func NewFaultUnit(latency int64, concurrency int) *FaultUnit {
	return &FaultUnit{
		Latency:     latency,
		Concurrency: concurrency,
		resident:    make(map[memreq.PageKey]bool),
	}
}

// Touch reports whether page key is resident. If not, h is held and handed
// to the sink when the fault completes; Touch returns false in that case.
func (f *FaultUnit) Touch(now int64, key memreq.PageKey, h HeldWalk) bool {
	if f.resident[key] {
		return true
	}
	// Merge into an in-flight or queued fault for the same page.
	if p := f.pending(key); p != nil {
		p.Notify = append(p.Notify, h)
		return false
	}
	f.Stats.Faults++
	p := PendingFault{Fault: Fault{Key: key, Start: now}, Notify: []HeldWalk{h}}
	if len(f.inflight) < f.Concurrency {
		p.DoneAt = now + f.Latency
		f.inflight = append(f.inflight, p)
	} else {
		f.queue.Push(now, p)
	}
	return false
}

// pending returns the in-flight or queued fault of key where it sits, or
// nil.
func (f *FaultUnit) pending(key memreq.PageKey) *PendingFault {
	for i := range f.inflight {
		if p := &f.inflight[i]; p.Key == key {
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
			for _, h := range p.Notify {
				f.sink.FaultDone(now, p.Key, h)
			}
		} else {
			f.inflight[nkeep] = p
			nkeep++
		}
	}
	clear(f.inflight[nkeep:]) // drop the completed faults' held walks
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
