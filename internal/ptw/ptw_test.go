package ptw

import (
	"testing"

	"masksim/internal/memreq"
	"masksim/internal/pagetable"
)

// fakeMem completes requests on demand, recording order and levels.
type fakeMem struct {
	reqs   []*memreq.Request
	reject bool
}

func (f *fakeMem) Submit(now int64, r *memreq.Request) bool {
	if f.reject {
		return false
	}
	f.reqs = append(f.reqs, r)
	return true
}

func (f *fakeMem) completeAll(now int64) int {
	reqs := f.reqs
	f.reqs = nil
	for _, r := range reqs {
		r.Complete(now, memreq.ServedL2)
	}
	return len(reqs)
}

// walkLog is the WalkSink (and FaultSink) of a walker or fault unit under
// test: it records what was delivered, and when.
type walkLog struct {
	done []walkResult
}

type walkResult struct {
	now    int64
	vpn    uint64
	frame  uint64
	origin WalkOrigin
}

func (l *walkLog) WalkDone(now int64, asid uint8, appID int, vpn, frame uint64, origin WalkOrigin) {
	l.done = append(l.done, walkResult{now, vpn, frame, origin})
}

func (l *walkLog) FaultDone(now int64, h HeldWalk) {
	l.done = append(l.done, walkResult{now, h.VPN, h.Frame, h.Origin})
}

func (l *walkLog) Awaits(asid uint8, vpn uint64) bool { return true }

func (l *walkLog) Deliverable(h HeldWalk) bool { return true }

// newWalker builds a walker over mem whose walk results land in the returned
// log.
func newWalker(maxConcurrent int, mem *fakeMem, numApps int) (*Walker, *walkLog) {
	w, log := New(maxConcurrent, mem, numApps, new(memreq.Pool)), &walkLog{}
	w.SetWalkSink(log)
	return w, log
}

func newWalkerWithPage(t *testing.T, maxConcurrent int) (*Walker, *fakeMem, *pagetable.Space, uint64) {
	t.Helper()
	mem := &fakeMem{}
	w, _ := newWalker(maxConcurrent, mem, 2)
	sp := pagetable.NewSpace(1, pagetable.PageSize4K, pagetable.NewAllocator())
	w.AddSpace(sp)
	va := uint64(0x4_0000_0000)
	frame := sp.EnsureMapped(va)
	return w, mem, sp, frame
}

func TestWalkIssuesAllLevelsInOrder(t *testing.T) {
	w, mem, sp, frame := newWalkerWithPage(t, 4)
	va := uint64(0x4_0000_0000)
	log := &walkLog{}
	w.SetWalkSink(log)
	w.StartWalk(0, 1, 0, sp.VPN(va), OriginPrefetch)

	now := int64(0)
	for lvl := 1; lvl <= 4; lvl++ {
		w.Tick(now)
		if len(mem.reqs) != 1 {
			t.Fatalf("level %d: %d requests in flight, want 1 (dependent chain)", lvl, len(mem.reqs))
		}
		r := mem.reqs[0]
		if r.Class != memreq.Translation || int(r.WalkLevel) != lvl {
			t.Fatalf("level %d request has class=%v level=%d", lvl, r.Class, r.WalkLevel)
		}
		mem.completeAll(now + 1)
		now += 2
	}
	if len(log.done) != 1 || log.done[0] != (walkResult{7, sp.VPN(va), frame, OriginPrefetch}) {
		t.Fatalf("walk delivered %+v, want frame %d for its vpn and origin, once, at cycle 7", log.done, frame)
	}
	if w.Stats.Completed != 1 {
		t.Fatal("completion not counted")
	}
}

func TestWalkAddressesMatchPageTable(t *testing.T) {
	w, mem, sp, _ := newWalkerWithPage(t, 4)
	va := uint64(0x4_0000_0000)
	vpn := sp.VPN(va)
	want := sp.WalkAddrs(vpn)
	w.StartWalk(0, 1, 0, vpn, OriginL2Miss)
	now := int64(0)
	for lvl := 0; lvl < 4; lvl++ {
		w.Tick(now)
		if mem.reqs[0].Addr != want[lvl] {
			t.Fatalf("level %d fetch at %#x, want %#x", lvl+1, mem.reqs[0].Addr, want[lvl])
		}
		mem.completeAll(now + 1)
		now += 2
	}
}

func TestConcurrencyLimit(t *testing.T) {
	w, mem, sp, _ := newWalkerWithPage(t, 2)
	base := uint64(0x4_0000_0000)
	for i := 0; i < 5; i++ {
		va := base + uint64(i)*pagetable.PageSize4K
		sp.EnsureMapped(va)
		w.StartWalk(0, 1, 0, sp.VPN(va), OriginL2Miss)
	}
	w.Tick(0)
	if w.ActiveWalks() != 2 {
		t.Fatalf("active=%d, want 2 (limit)", w.ActiveWalks())
	}
	if w.QueuedWalks() != 3 {
		t.Fatalf("queued=%d, want 3", w.QueuedWalks())
	}
	// Finish the active walks; queued ones must be admitted.
	for now := int64(1); now < 30; now++ {
		mem.completeAll(now)
		w.Tick(now)
	}
	if w.Stats.Completed != 5 {
		t.Fatalf("completed=%d, want 5", w.Stats.Completed)
	}
}

func TestActiveWalksForApp(t *testing.T) {
	w, _, sp, _ := newWalkerWithPage(t, 8)
	base := uint64(0x4_0000_0000)
	for i := 0; i < 3; i++ {
		va := base + uint64(i)*pagetable.PageSize4K
		sp.EnsureMapped(va)
		app := i % 2
		w.StartWalk(0, 1, app, sp.VPN(va), OriginL2Miss)
	}
	w.Tick(0)
	if w.ActiveWalksForApp(0) != 2 || w.ActiveWalksForApp(1) != 1 {
		t.Fatalf("per-app active = %d/%d, want 2/1",
			w.ActiveWalksForApp(0), w.ActiveWalksForApp(1))
	}
}

func TestMemRejectionRetries(t *testing.T) {
	w, mem, sp, frame := newWalkerWithPage(t, 4)
	mem.reject = true
	va := uint64(0x4_0000_0000)
	log := &walkLog{}
	w.SetWalkSink(log)
	w.StartWalk(0, 1, 0, sp.VPN(va), OriginL2Miss)
	w.Tick(0)
	w.Tick(1)
	if len(mem.reqs) != 0 {
		t.Fatal("rejected request recorded")
	}
	mem.reject = false
	now := int64(2)
	for lvl := 0; lvl < 4; lvl++ {
		w.Tick(now)
		mem.completeAll(now + 1)
		now += 2
	}
	if len(log.done) != 1 || log.done[0].frame != frame {
		t.Fatal("walk did not recover from rejections")
	}
}

func TestSubmitTransRoutesToWalk(t *testing.T) {
	w, mem, sp, frame := newWalkerWithPage(t, 4)
	va := uint64(0x4_0000_0000)
	var got uint64
	tr := &memreq.TransReq{ASID: 1, AppID: 0, VPN: sp.VPN(va),
		Ret: memreq.TransSinkFunc(func(now int64, _ *memreq.TransReq, f uint64) { got = f })}
	if !w.SubmitTrans(0, tr) {
		t.Fatal("SubmitTrans rejected")
	}
	now := int64(0)
	for lvl := 0; lvl < 4; lvl++ {
		w.Tick(now)
		mem.completeAll(now + 1)
		now += 2
	}
	if got != frame {
		t.Fatal("SubmitTrans walk did not complete")
	}
}

func TestWalkUnknownASIDPanics(t *testing.T) {
	mem := &fakeMem{}
	w := New(4, mem, 1, new(memreq.Pool))
	defer func() {
		if recover() == nil {
			t.Fatal("walk for unregistered ASID did not panic")
		}
	}()
	w.StartWalk(0, 9, 0, 1, OriginL2Miss)
}

func TestConcurrencySampling(t *testing.T) {
	w, mem, sp, _ := newWalkerWithPage(t, 8)
	base := uint64(0x4_0000_0000)
	for i := 0; i < 4; i++ {
		va := base + uint64(i)*pagetable.PageSize4K
		sp.EnsureMapped(va)
		w.StartWalk(0, 1, 0, sp.VPN(va), OriginL2Miss)
	}
	// Tick across a sampling boundary without completing anything.
	for now := int64(0); now <= 128; now++ {
		w.Tick(now)
	}
	if w.Stats.Samples == 0 || w.Stats.AvgConcurrent() < 3.5 {
		t.Fatalf("sampling broken: samples=%d avg=%v", w.Stats.Samples, w.Stats.AvgConcurrent())
	}
	mem.completeAll(200)
}
