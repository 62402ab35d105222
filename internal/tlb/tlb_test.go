package tlb

import (
	"testing"
	"testing/quick"

	"masksim/internal/memreq"
	"masksim/internal/ptw"
)

// fakeTransBackend records translation requests and answers on demand to the
// L1 TLBs built over it (newL1), one core each.
type fakeTransBackend struct {
	reqs   []memreq.Trans
	reject bool
	l1s    L1TLBs
}

func (f *fakeTransBackend) SubmitTrans(now int64, tr memreq.Trans) bool {
	if f.reject {
		return false
	}
	f.reqs = append(f.reqs, tr)
	return true
}

func (f *fakeTransBackend) answerAll(now int64) {
	reqs := f.reqs
	f.reqs = nil
	for _, tr := range reqs {
		f.l1s.TransDone(now, tr.Key())
	}
}

// wakeLog is the Waker of an L1 TLB under test: it records who was woken.
type wakeLog struct {
	woken []woke
}

type woke struct {
	now        int64
	warp, slot int
}

func (l *wakeLog) Translated(now int64, warpID, slot int) {
	l.woken = append(l.woken, woke{now, warpID, slot})
}

func (l *wakeLog) Await(warpID, slot int, vpn uint64) bool { return true }

func newL1(asid uint8, size int, be *fakeTransBackend) (*L1TLB, *wakeLog) {
	l1, log := NewL1(len(be.l1s), 0, asid, size, be), &wakeLog{}
	be.l1s = append(be.l1s, l1)
	l1.SetWaker(log)
	return l1, log
}

func TestL1MissThenHit(t *testing.T) {
	be := &fakeTransBackend{}
	l1, log := newL1(1, 4, be)
	if hit := l1.Lookup(0, 0x10, 3, 1, true); hit || len(be.reqs) != 1 {
		t.Fatalf("cold lookup hit=%v and backend saw %d requests, want a miss and 1", hit, len(be.reqs))
	}
	be.answerAll(5)
	if len(log.woken) != 1 || log.woken[0] != (woke{5, 3, 1}) {
		t.Fatalf("woken %+v, want warp 3 slot 1 at cycle 5", log.woken)
	}
	// Second lookup hits without touching the backend or waking anyone.
	if hit := l1.Lookup(6, 0x10, 1, 0, true); !hit || len(be.reqs) != 0 || len(log.woken) != 1 {
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
	if e, _ := l1.mshrs.Find(0x20); l1.mshrs.Count(e) != 5 {
		t.Fatalf("%d warps stalled on the miss, want 5", l1.mshrs.Count(e))
	}
	be.answerAll(3)
	for w, got := range log.woken {
		if got != (woke{3, w, w % 2}) {
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

// TestTransDoneWithoutMissPanics returns one translation twice: the second
// return finds no miss open for it, which only a double completion does.
func TestTransDoneWithoutMissPanics(t *testing.T) {
	be := &fakeTransBackend{}
	l1, _ := newL1(1, 4, be)
	l1.Lookup(0, 0x50, 0, 0, true)
	tr := be.reqs[0]
	be.answerAll(1)
	defer func() {
		if r := recover(); r != "tlb: a translation returned to an L1 TLB with no miss open for it (completed twice)" {
			t.Fatalf("panic %v, want the double-completion panic", r)
		}
	}()
	l1.TransDone(2, tr.VPN)
}

func TestL1LRUEviction(t *testing.T) {
	be := &fakeTransBackend{}
	l1, _ := newL1(1, 2, be)
	fill := func(vpn uint64) {
		l1.Lookup(0, vpn, 0, 0, true)
		be.answerAll(1)
	}
	fill(1)
	fill(2)
	// Touch 1 so 2 is LRU.
	l1.Lookup(2, 1, 0, 0, true)
	fill(3)
	if !l1.tab.contains(memreq.PageKey{ASID: l1.asid, VPN: 1}) || !l1.tab.contains(memreq.PageKey{ASID: l1.asid, VPN: 3}) || l1.tab.contains(memreq.PageKey{ASID: l1.asid, VPN: 2}) {
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
	be.answerAll(2)
	if len(log.woken) != 1 {
		t.Fatal("request lost after retry")
	}
}

func TestL1FlushDropsEntries(t *testing.T) {
	be := &fakeTransBackend{}
	l1, _ := newL1(1, 8, be)
	l1.Lookup(0, 0x40, 0, 0, true)
	be.answerAll(1)
	l1.Flush()
	if l1.tab.n != 0 {
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

func (f *fakeWalker) completeAll(now int64) {
	walks := f.walks
	f.walks = nil
	for _, wk := range walks {
		f.sink.WalkDone(now, wk.asid, wk.appID, wk.vpn, wk.origin)
	}
}

func newL2(numApps int, bypassSize int, tokens *TokenPolicy) (*L2TLB, *fakeWalker) {
	w := &fakeWalker{}
	l2 := NewL2(L2Config{
		Entries: 32, Ways: 4, Ports: 2, Latency: 1, QueueCap: 16,
		BypassSize: bypassSize, NumApps: numApps,
	}, w, tokens, new(L1TLBs))
	w.sink = l2
	return l2, w
}

// wakeFunc is the Waker of an L1 TLB over a shared TLB under test: it runs
// when a miss of its TLB returns (nil: nothing).
type wakeFunc func(now int64)

func (f wakeFunc) Translated(now int64, warpID, slot int) {
	if f != nil {
		f(now)
	}
}

func (f wakeFunc) Await(warpID, slot int, vpn uint64) bool { return true }

// submit has the L1 TLB of a new core, of tr's app and address space, miss on
// tr's page at cycle at: it sends l2 the translation tr describes, of that
// core. done, if not nil, runs when the translation returns.
func submit(t testing.TB, l2 *L2TLB, tr memreq.Trans, at int64, done func(now int64)) *L1TLB {
	t.Helper()
	l1 := NewL1(len(*l2.l1s), tr.AppID, tr.ASID, 4, l2)
	*l2.l1s = append(*l2.l1s, l1)
	l1.SetWaker(wakeFunc(done))
	l1.Lookup(at, tr.VPN, 0, 0, tr.HasToken)
	if l1.pending.Len() > 0 {
		t.Fatal("SubmitTrans rejected")
	}
	return l1
}

func submitAndTick(t *testing.T, l2 *L2TLB, tr memreq.Trans, from, to int64, done func(now int64)) {
	t.Helper()
	submit(t, l2, tr, from, done)
	for now := from; now <= to; now++ {
		l2.Tick(now)
	}
}

func TestL2MissWalkFill(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	var got int64
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 0x100}, 0, 3, func(now int64) { got = now })
	if len(w.walks) != 1 {
		t.Fatalf("walker saw %d walks, want 1", len(w.walks))
	}
	w.completeAll(10)
	if got != 10 {
		t.Fatalf("translation returned at cycle %d, want 10", got)
	}
	// Now it hits.
	hit := false
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 0x100}, 11, 14, func(int64) { hit = true })
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
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 0x200}, 0, 3, nil)
	w.completeAll(5)
	// Same VPN, different ASID must MISS.
	submitAndTick(t, l2, memreq.Trans{ASID: 2, AppID: 1, VPN: 0x200}, 6, 9, nil)
	if len(w.walks) != 1 {
		t.Fatal("cross-ASID access hit another space's translation")
	}
}

func TestL2MSHRMergesAcrossCores(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	done := 0
	for i := 0; i < 3; i++ {
		submit(t, l2, memreq.Trans{ASID: 1, VPN: 0x300}, 0, func(int64) { done++ })
	}
	for now := int64(0); now <= 3; now++ {
		l2.Tick(now)
	}
	if len(w.walks) != 1 {
		t.Fatalf("%d walks for one page, want 1 (merged)", len(w.walks))
	}
	w.completeAll(5)
	if done != 3 {
		t.Fatalf("%d callbacks, want 3", done)
	}
}

func TestL2WalkBacklogStallsMisses(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	w.queued = walkBacklogLimit // backlog full
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 0x400}, 0, 3, nil)
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

func TestTokenGatingFillsBypassCache(t *testing.T) {
	tokens := NewTokenPolicy(1, 64, 0.8, true)
	tokens.Epoch([]float64{0.5}) // end the first epoch so gating is active
	// Force a token count below 64 so warp 63 has no token.
	for tokens.Tokens(0) > 32 {
		tokens.Epoch([]float64{0.9})
	}
	l2, w := newL2(1, 4, tokens)

	// Token-less warp's fill must land in the bypass cache, not main TLB.
	if tokens.HasToken(0, 63) {
		t.Fatal("test setup: warp 63 unexpectedly has a token")
	}
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 0x600}, 0, 3, nil)
	w.completeAll(5)
	if l2.probe(memreq.PageKey{ASID: 1, VPN: 0x600}) {
		t.Fatal("token-less fill entered the main TLB")
	}
	// But a subsequent probe still hits via the bypass cache.
	hit := false
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 0x600}, 6, 9, func(int64) { hit = true })
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
	b.fill(memreq.PageKey{ASID: 1, VPN: 10})
	b.fill(memreq.PageKey{ASID: 1, VPN: 20})
	b.probe(memreq.PageKey{ASID: 1, VPN: 10}) // 20 becomes LRU
	b.fill(memreq.PageKey{ASID: 1, VPN: 30})
	if b.probe(memreq.PageKey{ASID: 1, VPN: 20}) {
		t.Fatal("LRU victim survived")
	}
	if !b.probe(memreq.PageKey{ASID: 1, VPN: 10}) {
		t.Fatal("recently used entry evicted")
	}
}

func TestPressureSaturatesAt6Bits(t *testing.T) {
	l2, _ := newL2(1, 0, nil)
	// Create 100 outstanding misses, each stalling 100 warps at its L1 TLB.
	for i := 0; i < 100; i++ {
		vpn := uint64(0x1000 + i)
		l1 := submit(t, l2, memreq.Trans{ASID: 1, VPN: vpn}, int64(i), nil)
		for w := 1; w < 100; w++ {
			l1.Lookup(int64(i), vpn, w, 0, false)
		}
		l2.Tick(int64(i))
	}
	for now := int64(100); now < 120; now++ {
		l2.Tick(now)
	}
	if l2.OutstandingMisses() != 100 {
		t.Fatalf("%d misses outstanding, want 100", l2.OutstandingMisses())
	}
	if con, stalled := l2.Pressure(0); con != 63 || stalled != 63 {
		t.Fatalf("pressure (%v,%v), want both saturated at 63", con, stalled)
	}
}
