package ptw

import (
	"testing"

	"masksim/internal/memreq"
	"masksim/internal/pagetable"
)

// newFaultUnit builds a fault unit whose held walks land in the returned log.
func newFaultUnit(latency int64, concurrency int) (*FaultUnit, *walkLog) {
	f, log := NewFaultUnit(latency, concurrency), &walkLog{}
	f.sink = log
	return f, log
}

func TestFaultFirstTouchPaysLatency(t *testing.T) {
	f, log := newFaultUnit(100, 4)
	if f.Touch(0, 1, 42, HeldWalk{VPN: 42, Origin: OriginL2Miss}) {
		t.Fatal("first touch reported resident")
	}
	for now := int64(1); now < 99; now++ {
		f.Tick(now)
		if len(log.done) > 0 {
			t.Fatalf("fault completed early at %d", log.done[0].now)
		}
	}
	f.Tick(100)
	if len(log.done) != 1 || log.done[0] != (walkResult{now: 100, vpn: 42, origin: OriginL2Miss}) {
		t.Fatalf("fault delivered %+v, want the held walk once at 100", log.done)
	}
	// Page now resident: no further fault.
	if !f.Touch(101, 1, 42, HeldWalk{}) {
		t.Fatal("resident page faulted again")
	}
	if f.Stats.Faults != 1 {
		t.Fatalf("fault count %d, want 1", f.Stats.Faults)
	}
}

func TestFaultMergesSamePage(t *testing.T) {
	f, log := newFaultUnit(50, 4)
	f.Touch(0, 1, 7, HeldWalk{})
	f.Touch(1, 1, 7, HeldWalk{})
	if f.Stats.Faults != 1 {
		t.Fatalf("same-page touches raised %d faults", f.Stats.Faults)
	}
	for now := int64(0); now <= 60; now++ {
		f.Tick(now)
	}
	if done := len(log.done); done != 2 {
		t.Fatalf("%d held walks delivered, want 2", done)
	}
}

// TestFaultMergeAllocatesNothing pins that a touch merging into a queued
// fault allocates nothing when the fault's notify list has room: the search
// walks the in-flight and queued faults where they are.
func TestFaultMergeAllocatesNothing(t *testing.T) {
	f, _ := newFaultUnit(100, 1)
	for vpn := uint64(1); vpn <= 8; vpn++ {
		f.Touch(0, 1, vpn, HeldWalk{VPN: vpn})
	}
	if len(f.inflight) != 1 || f.queue.Len() != 7 {
		t.Fatalf("%d faults in flight and %d queued, want 1 and 7", len(f.inflight), f.queue.Len())
	}
	last := f.queue.At(f.queue.Len() - 1)
	last.notify = make([]HeldWalk, 1, 256)
	if n := testing.AllocsPerRun(100, func() { f.Touch(1, 1, 8, HeldWalk{VPN: 8}) }); n != 0 {
		t.Fatalf("a merging Touch allocates %v times, want 0", n)
	}
}

func TestFaultConcurrencyLimit(t *testing.T) {
	f, log := newFaultUnit(100, 2)
	for vpn := uint64(0); vpn < 5; vpn++ {
		f.Touch(0, 1, vpn, HeldWalk{})
	}
	if f.Outstanding() != 5 {
		t.Fatalf("outstanding=%d, want 5", f.Outstanding())
	}
	// After one service window only the two in-flight faults are done.
	for now := int64(0); now <= 100; now++ {
		f.Tick(now)
	}
	if done := len(log.done); done != 2 {
		t.Fatalf("%d faults done after one window, want 2 (concurrency limit)", done)
	}
	for now := int64(101); now <= 400; now++ {
		f.Tick(now)
	}
	if done := len(log.done); done != 5 {
		t.Fatalf("%d faults done at drain, want 5", done)
	}
	if f.Stats.AvgLatency() <= 100 {
		t.Fatalf("queued faults should raise average latency above the service time, got %v",
			f.Stats.AvgLatency())
	}
}

func TestPrefaultSkipsFault(t *testing.T) {
	f := NewFaultUnit(100, 1)
	f.resident[memreq.PageKey{ASID: 1, VPN: 9}] = true // resident from the start, as a restore leaves it
	if !f.Touch(0, 1, 9, HeldWalk{}) {
		t.Fatal("prefaulted page still faulted")
	}
}

func TestWalkerWithFaultUnit(t *testing.T) {
	mem := &fakeMem{}
	w, log := newWalker(4, mem)
	sp := pagetable.NewSpace(1, pagetable.PageSize4K, pagetable.NewAllocator())
	w.AddSpace(sp)
	fu := NewFaultUnit(200, 4)
	w.SetFaultUnit(fu)
	if w.faults != fu {
		t.Fatal("fault unit not attached")
	}

	va := uint64(0x4_0000_0000)
	sp.EnsureMapped(va)
	w.StartWalk(0, 1, 0, sp.VPN(va), OriginL2Miss)
	now := int64(0)
	for lvl := 0; lvl < 4; lvl++ {
		w.Tick(now)
		fu.Tick(now)
		mem.completeAll(now + 1)
		now += 2
	}
	// The walk finished but the fault holds the translation.
	if len(log.done) > 0 {
		t.Fatal("translation returned before the fault was serviced")
	}
	for ; now < 300; now++ {
		w.Tick(now)
		fu.Tick(now)
	}
	if len(log.done) != 1 || log.done[0].now < 200 {
		t.Fatalf("translation delivered %+v, want once at >= fault latency 200", log.done)
	}
	if w.Stats.Completed != 1 {
		t.Fatal("walk completion not counted after fault")
	}
}
