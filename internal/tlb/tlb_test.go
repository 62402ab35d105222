package tlb

import (
	"testing"
	"testing/quick"

	"masksim/internal/memreq"
	"masksim/internal/ptw"
)

// fakeTransBackend records translation requests and answers on demand.
type fakeTransBackend struct {
	reqs   []*memreq.TransReq
	reject bool
}

func (f *fakeTransBackend) SubmitTrans(now int64, tr *memreq.TransReq) bool {
	if f.reject {
		return false
	}
	f.reqs = append(f.reqs, tr)
	return true
}

func (f *fakeTransBackend) answerAll(now int64, frame uint64) {
	reqs := f.reqs
	f.reqs = nil
	for _, tr := range reqs {
		tr.Complete(now, frame)
	}
}

// wakeLog is the Waker of an L1 TLB under test: it records who was woken.
type wakeLog struct {
	woken []woke
}

type woke struct {
	warp, slot int
	frame      uint64
}

func (l *wakeLog) Translated(now int64, warpID, slot int, frame uint64) {
	l.woken = append(l.woken, woke{warpID, slot, frame})
}

func (l *wakeLog) Awaits(warpID, slot int) bool { return true }

func newL1(asid uint8, size int, be TransBackend) (*L1TLB, *wakeLog) {
	l1, log := NewL1(0, 0, asid, size, be, new(memreq.TransPool)), &wakeLog{}
	l1.SetWaker(log)
	return l1, log
}

func TestL1MissThenHit(t *testing.T) {
	be := &fakeTransBackend{}
	l1, log := newL1(1, 4, be)
	if _, hit := l1.Lookup(0, 0x10, 3, 1, true); hit || len(be.reqs) != 1 {
		t.Fatalf("cold lookup hit=%v and backend saw %d requests, want a miss and 1", hit, len(be.reqs))
	}
	be.answerAll(5, 99)
	if len(log.woken) != 1 || log.woken[0] != (woke{3, 1, 99}) {
		t.Fatalf("woken %+v, want warp 3 slot 1 with frame 99", log.woken)
	}
	// Second lookup hits without touching the backend or waking anyone.
	if frame, hit := l1.Lookup(6, 0x10, 1, 0, true); !hit || frame != 99 || len(be.reqs) != 0 || len(log.woken) != 1 {
		t.Fatal("expected L1 hit")
	}
	if l1.Stats.Hits != 1 || l1.Stats.Misses != 1 {
		t.Fatalf("stats %+v", l1.Stats)
	}
}

func TestL1MSHRMergesWarps(t *testing.T) {
	be := &fakeTransBackend{}
	l1, log := newL1(1, 4, be)
	for w := 0; w < 5; w++ {
		l1.Lookup(0, 0x20, w, w%2, true)
	}
	if len(be.reqs) != 1 {
		t.Fatalf("merged miss sent %d backend requests", len(be.reqs))
	}
	if be.reqs[0].StalledWarps != 5 {
		t.Fatalf("StalledWarps=%d, want 5", be.reqs[0].StalledWarps)
	}
	be.answerAll(3, 7)
	for w, got := range log.woken {
		if got != (woke{w, w % 2, 7}) {
			t.Fatalf("wake %d is %+v, want arrival order", w, got)
		}
	}
	if len(log.woken) != 5 {
		t.Fatalf("%d warps woken, want 5", len(log.woken))
	}
	if l1.Stats.AvgStalledWarps() != 5 {
		t.Fatalf("AvgStalledWarps=%v, want 5", l1.Stats.AvgStalledWarps())
	}
}

func TestL1LRUEviction(t *testing.T) {
	be := &fakeTransBackend{}
	l1, _ := newL1(1, 2, be)
	fill := func(vpn uint64) {
		l1.Lookup(0, vpn, 0, 0, true)
		be.answerAll(1, vpn+100)
	}
	fill(1)
	fill(2)
	// Touch 1 so 2 is LRU.
	l1.Lookup(2, 1, 0, 0, true)
	fill(3)
	if !l1.Contains(1) || !l1.Contains(3) || l1.Contains(2) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestL1BackendRejectionRetries(t *testing.T) {
	be := &fakeTransBackend{reject: true}
	l1, log := newL1(1, 4, be)
	l1.Lookup(0, 0x30, 0, 0, true)
	be.reject = false
	l1.Tick(1)
	if len(be.reqs) != 1 {
		t.Fatal("pending request not retried")
	}
	be.answerAll(2, 5)
	if len(log.woken) != 1 {
		t.Fatal("request lost after retry")
	}
}

func TestL1FlushDropsEntries(t *testing.T) {
	be := &fakeTransBackend{}
	l1, _ := newL1(1, 8, be)
	l1.Lookup(0, 0x40, 0, 0, true)
	be.answerAll(1, 9)
	l1.Flush()
	if l1.Entries() != 0 {
		t.Fatal("flush left entries")
	}
}

// fakeWalker implements WalkStarter: it records the walks the TLB starts and
// returns them through sink, as the real walker would.
type fakeWalker struct {
	walks  []startedWalk
	vpns   []uint64
	queued int
	sink   ptw.WalkSink
}

type startedWalk struct {
	asid   uint8
	appID  int
	vpn    uint64
	origin ptw.WalkOrigin
}

func (f *fakeWalker) StartWalk(now int64, asid uint8, appID int, vpn uint64, origin ptw.WalkOrigin) {
	f.walks = append(f.walks, startedWalk{asid, appID, vpn, origin})
	f.vpns = append(f.vpns, vpn)
}
func (f *fakeWalker) QueuedWalks() int { return f.queued }

func (f *fakeWalker) completeAll(now int64, frame uint64) {
	walks := f.walks
	f.walks = nil
	for _, wk := range walks {
		f.sink.WalkDone(now, wk.asid, wk.appID, wk.vpn, frame, wk.origin)
	}
}

func newL2(numApps int, bypassSize int, tokens *TokenPolicy) (*L2TLB, *fakeWalker) {
	w := &fakeWalker{}
	l2 := NewL2(L2Config{
		Entries: 32, Ways: 4, Ports: 2, Latency: 1, QueueCap: 16,
		BypassSize: bypassSize, NumApps: numApps,
	}, w, tokens)
	w.sink = l2
	return l2, w
}

func submitAndTick(t *testing.T, l2 *L2TLB, tr *memreq.TransReq, from, to int64) {
	t.Helper()
	if !l2.SubmitTrans(from, tr) {
		t.Fatal("SubmitTrans rejected")
	}
	for now := from; now <= to; now++ {
		l2.Tick(now)
	}
}

func TestL2MissWalkFill(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	var got uint64
	tr := &memreq.TransReq{ASID: 1, VPN: 0x100, Ret: memreq.TransSinkFunc(func(now int64, _ *memreq.TransReq, f uint64) { got = f })}
	submitAndTick(t, l2, tr, 0, 3)
	if len(w.walks) != 1 {
		t.Fatalf("walker saw %d walks, want 1", len(w.walks))
	}
	w.completeAll(10, 77)
	if got != 77 {
		t.Fatalf("translation=%d, want 77", got)
	}
	// Now it hits.
	hit := false
	tr2 := &memreq.TransReq{ASID: 1, VPN: 0x100, Ret: memreq.TransSinkFunc(func(int64, *memreq.TransReq, uint64) { hit = true })}
	submitAndTick(t, l2, tr2, 11, 14)
	if !hit || len(w.walks) != 0 {
		t.Fatal("expected shared TLB hit")
	}
	st := l2.AppStats(0)
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestL2ASIDIsolation(t *testing.T) {
	l2, w := newL2(2, 0, nil)
	tr := &memreq.TransReq{ASID: 1, VPN: 0x200}
	submitAndTick(t, l2, tr, 0, 3)
	w.completeAll(5, 42)
	// Same VPN, different ASID must MISS.
	tr2 := &memreq.TransReq{ASID: 2, AppID: 1, VPN: 0x200}
	submitAndTick(t, l2, tr2, 6, 9)
	if len(w.walks) != 1 {
		t.Fatal("cross-ASID access hit another space's translation")
	}
}

func TestL2MSHRMergesAcrossCores(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	done := 0
	for i := 0; i < 3; i++ {
		tr := &memreq.TransReq{ASID: 1, VPN: 0x300, CoreID: i, Ret: memreq.TransSinkFunc(func(int64, *memreq.TransReq, uint64) { done++ })}
		if !l2.SubmitTrans(0, tr) {
			t.Fatal("submit failed")
		}
	}
	for now := int64(0); now <= 3; now++ {
		l2.Tick(now)
	}
	if len(w.walks) != 1 {
		t.Fatalf("%d walks for one page, want 1 (merged)", len(w.walks))
	}
	w.completeAll(5, 9)
	if done != 3 {
		t.Fatalf("%d callbacks, want 3", done)
	}
}

func TestL2WalkBacklogStallsMisses(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	w.queued = walkBacklogLimit // backlog full
	tr := &memreq.TransReq{ASID: 1, VPN: 0x400}
	submitAndTick(t, l2, tr, 0, 3)
	if len(w.walks) != 0 {
		t.Fatal("walk started despite full backlog")
	}
	w.queued = 0
	for now := int64(4); now <= 6; now++ {
		l2.Tick(now)
	}
	if len(w.walks) != 1 {
		t.Fatal("stalled miss never started its walk")
	}
}

func TestL2FlushASID(t *testing.T) {
	l2, w := newL2(2, 0, nil)
	for i, asid := range []uint8{1, 2} {
		tr := &memreq.TransReq{ASID: asid, AppID: i, VPN: 0x500}
		submitAndTick(t, l2, tr, int64(i*10), int64(i*10+3))
		w.completeAll(int64(i*10+5), uint64(i+1))
	}
	l2.FlushASID(1)
	// ASID 1 must miss; ASID 2 must still hit.
	tr := &memreq.TransReq{ASID: 1, VPN: 0x500}
	submitAndTick(t, l2, tr, 30, 33)
	if len(w.walks) != 1 {
		t.Fatal("flushed ASID still hits")
	}
	w.completeAll(35, 1)
	hit2 := false
	tr2 := &memreq.TransReq{ASID: 2, AppID: 1, VPN: 0x500, Ret: memreq.TransSinkFunc(func(int64, *memreq.TransReq, uint64) { hit2 = true })}
	submitAndTick(t, l2, tr2, 40, 43)
	if !hit2 {
		t.Fatal("unflushed ASID lost its entry")
	}
}

func TestTokenGatingFillsBypassCache(t *testing.T) {
	tokens := NewTokenPolicy(1, 64, 0.8, true)
	tokens.Epoch([]float64{0.5}) // end the first epoch so gating is active
	// Force a token count below 64 so warp 63 has no token.
	for tokens.Tokens(0) > 32 {
		tokens.Epoch([]float64{0.9})
	}
	l2, w := newL2(1, 4, tokens)

	// Token-less warp's fill must land in the bypass cache, not main TLB.
	tr := &memreq.TransReq{ASID: 1, VPN: 0x600, HasToken: tokens.HasToken(0, 63)}
	if tr.HasToken {
		t.Fatal("test setup: warp 63 unexpectedly has a token")
	}
	submitAndTick(t, l2, tr, 0, 3)
	w.completeAll(5, 11)
	if _, ok := l2.probe(l2key{1, 0x600}); ok {
		t.Fatal("token-less fill entered the main TLB")
	}
	// But a subsequent probe still hits via the bypass cache.
	hit := false
	tr2 := &memreq.TransReq{ASID: 1, VPN: 0x600, Ret: memreq.TransSinkFunc(func(int64, *memreq.TransReq, uint64) { hit = true })}
	submitAndTick(t, l2, tr2, 6, 9)
	if !hit {
		t.Fatal("bypass cache did not serve the translation")
	}
	if l2.BypassHitRate() <= 0 {
		t.Fatal("bypass cache hit not recorded")
	}
}

func TestTokenPolicyDisabled(t *testing.T) {
	p := NewTokenPolicy(2, 64, 0.8, false)
	if !p.HasToken(0, 63) || !p.HasToken(1, 0) {
		t.Fatal("disabled policy must grant all tokens")
	}
	p.Epoch([]float64{0.9, 0.9})
	if p.Tokens(0) != 51 { // untouched initial 80% of 64
		t.Fatalf("disabled policy adapted: %d", p.Tokens(0))
	}
}

func TestTokenPolicyFirstEpochGrantsAll(t *testing.T) {
	p := NewTokenPolicy(1, 64, 0.5, true)
	if !p.HasToken(0, 63) {
		t.Fatal("first epoch must not bypass (paper footnote 6)")
	}
	p.Epoch([]float64{0.9})
	if p.HasToken(0, 63) {
		t.Fatal("after first epoch, warp above token count kept its token")
	}
}

// Property: token counts stay within [1, warpsPerCore] under arbitrary
// miss-rate sequences.
func TestTokenBoundsProperty(t *testing.T) {
	f := func(rates []float64) bool {
		p := NewTokenPolicy(1, 64, 0.8, true)
		for _, r := range rates {
			if r < 0 {
				r = -r
			}
			for r > 1 {
				r /= 2
			}
			p.Epoch([]float64{r})
			if p.Tokens(0) < 1 || p.Tokens(0) > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBypassCacheLRU(t *testing.T) {
	b := newBypassCache(2)
	b.fill(1, 10, 100)
	b.fill(1, 20, 200)
	b.probe(1, 10) // 20 becomes LRU
	b.fill(1, 30, 300)
	if _, ok := b.probe(1, 20); ok {
		t.Fatal("LRU victim survived")
	}
	if _, ok := b.probe(1, 10); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestPressureSaturatesAt6Bits(t *testing.T) {
	l2, _ := newL2(1, 0, nil)
	// Create 100 outstanding misses.
	for i := 0; i < 100; i++ {
		tr := &memreq.TransReq{ASID: 1, VPN: uint64(0x1000 + i), StalledWarps: 100}
		l2.SubmitTrans(int64(i), tr)
	}
	for now := int64(0); now < 120; now++ {
		l2.Tick(now)
	}
	con, stalled := l2.Pressure(0)
	if con > 63 || stalled > 63 {
		t.Fatalf("pressure (%v,%v) exceeds 6-bit saturation", con, stalled)
	}
	if con == 0 {
		t.Fatal("no pressure measured despite outstanding misses")
	}
}
