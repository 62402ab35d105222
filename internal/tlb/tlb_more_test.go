package tlb

import (
	"testing"

	"masksim/internal/memreq"
	"masksim/internal/ptw"
)

func TestL2WayPartitioning(t *testing.T) {
	l2, w := newL2(2, 0, nil)
	l2.SetWayPartition([]uint64{0b0011, 0b1100})
	// Fill the same set repeatedly from app 0; app 1's entry must survive.
	// With the hashed index we can't choose set collisions directly, so we
	// simply verify app 1's translation survives a burst of app-0 fills.
	submitAndTick(t, l2, memreq.Trans{ASID: 2, AppID: 1, VPN: 0x42}, 0, 3, nil)
	w.completeAll(4)

	for i := 0; i < 200; i++ {
		at := int64(10 + i*4)
		submitAndTick(t, l2, memreq.Trans{ASID: 1, AppID: 0, VPN: uint64(0x1000 + i)}, at, at+2, nil)
		w.completeAll(at + 3)
	}
	hit := false
	submitAndTick(t, l2, memreq.Trans{ASID: 2, AppID: 1, VPN: 0x42}, 5000, 5003, func(int64) { hit = true })
	if !hit {
		t.Fatal("app 1's translation evicted despite way partitioning")
	}
}

func TestL2FlushFraction(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	for i := 0; i < 16; i++ {
		at := int64(i * 5)
		submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: uint64(i)}, at, at+2, nil)
		w.completeAll(at + 3)
	}
	l2.FlushFraction(1.0)
	// Everything must now miss.
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 3}, 200, 203, nil)
	if len(w.walks) != 1 {
		t.Fatal("entry survived full flush")
	}
}

func TestL1FlushFractionPartial(t *testing.T) {
	be := &fakeTransBackend{}
	l1, _ := newL1(1, 16, be)
	for i := 0; i < 16; i++ {
		l1.Lookup(int64(i), uint64(i), 0, 0, true)
		be.answerAll(int64(i))
	}
	before := l1.tab.n
	l1.FlushFraction(0.5)
	after := l1.tab.n
	if after >= before || after == 0 {
		t.Fatalf("partial flush: %d -> %d entries", before, after)
	}
	// Victims are every second entry in VPN order, whatever order the map
	// iterates in.
	for vpn := uint64(0); vpn < 16; vpn++ {
		if got, want := l1.tab.contains(memreq.PageKey{ASID: l1.asid, VPN: vpn}), vpn%2 == 1; got != want {
			t.Fatalf("after FlushFraction(0.5): Contains(%d) = %v, want %v", vpn, got, want)
		}
	}
}

func TestL2EpochRollResets(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 0x900}, 0, 3, nil)
	w.completeAll(4)
	rates := l2.EpochRoll()
	if rates[0] != 1.0 {
		t.Fatalf("first epoch miss rate %v, want 1.0", rates[0])
	}
	// New epoch starts clean: a hit-only epoch reports 0.
	submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: 0x900}, 10, 13, nil)
	rates = l2.EpochRoll()
	if rates[0] != 0.0 {
		t.Fatalf("hit-only epoch miss rate %v, want 0", rates[0])
	}
}

func TestTokenHillClimbReversesOnWorsening(t *testing.T) {
	p := NewTokenPolicy(1, 64, 0.8, true)
	p.Epoch([]float64{0.6}) // ends first epoch, records prev=0.6
	start := p.Tokens(0)
	p.Epoch([]float64{0.6}) // flat & >0.5: probe downward
	if p.Tokens(0) >= start {
		t.Fatalf("flat high miss rate did not probe downward (%d -> %d)", start, p.Tokens(0))
	}
	down := p.Tokens(0)
	p.Epoch([]float64{0.9}) // probe made it worse: reverse upward
	if p.Tokens(0) <= down {
		t.Fatalf("worsening did not reverse the probe (%d -> %d)", down, p.Tokens(0))
	}
}

func TestTokenComfortZoneStable(t *testing.T) {
	p := NewTokenPolicy(1, 64, 0.8, true)
	p.Epoch([]float64{0.1})
	tok := p.Tokens(0)
	for i := 0; i < 5; i++ {
		p.Epoch([]float64{0.1}) // flat and low: leave tokens alone
	}
	if p.Tokens(0) != tok {
		t.Fatalf("comfortable region adapted tokens %d -> %d", tok, p.Tokens(0))
	}
}

func TestL2StatsHitsPlusMissesBounded(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	for i := 0; i < 50; i++ {
		vpn := uint64(i % 10)
		at := int64(i * 6)
		submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: vpn}, at, at+3, nil)
		w.completeAll(at + 4)
	}
	st := l2.AppStats(0)
	if st.Accesses != 50 {
		t.Fatalf("accesses=%d, want 50", st.Accesses)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits(%d)+misses(%d) != accesses(%d)", st.Hits, st.Misses, st.Accesses)
	}
	if st.Hits == 0 {
		t.Fatal("repeated VPNs never hit")
	}
	total := l2.TotalStats()
	if total.Accesses != st.Accesses {
		t.Fatal("TotalStats disagrees with single-app stats")
	}
}

func TestPrefetcherCorrelation(t *testing.T) {
	p := NewPrefetcher()
	// Teach the sequence A -> B -> C once; the second traversal predicts.
	seq := []uint64{100, 200, 300}
	for _, vpn := range seq {
		p.Observe(1, vpn)
	}
	got, ok := p.Observe(1, 100)
	if !ok || got != 200 {
		t.Fatalf("prediction after revisit = %d,%v; want 200", got, ok)
	}
	got, ok = p.Observe(1, 200)
	if !ok || got != 300 {
		t.Fatalf("chained prediction = %d,%v; want 300", got, ok)
	}
}

func TestPrefetcherPerASIDIsolation(t *testing.T) {
	p := NewPrefetcher()
	for _, vpn := range []uint64{10, 20, 10, 20} {
		p.Observe(1, vpn)
	}
	// The same VPNs in a different address space predict nothing.
	if _, ok := p.Observe(2, 10); ok {
		t.Fatal("correlation leaked across address spaces")
	}
}

func TestPrefetcherTableBounded(t *testing.T) {
	p := NewPrefetcher()
	for vpn := uint64(0); vpn < uint64(prefetchTableCap)*3; vpn++ {
		p.Observe(1, vpn)
	}
	if len(p.next) > prefetchTableCap {
		t.Fatalf("table grew to %d entries (cap %d)", len(p.next), prefetchTableCap)
	}
}

func TestL2PrefetchInstallsAndCountsUseful(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	mapped := func(asid uint8, vpn uint64) bool { return true }
	l2.SetPrefetcher(NewPrefetcher(), mapped)

	// Traverse a capacity-exceeding page sequence repeatedly: on later
	// passes each miss predicts the (evicted) successor, which is
	// prefetched ahead of demand.
	var seq []uint64
	for i := 0; i < 48; i++ { // 48 pages > the 32-entry test TLB
		seq = append(seq, uint64(100+i*4))
	}
	at := int64(0)
	for pass := 0; pass < 3; pass++ {
		for _, vpn := range seq {
			submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: vpn}, at, at+3, nil)
			w.completeAll(at + 4)
			at += 10
		}
		// Break the chain between passes so the wrap transition is also
		// learned.
	}
	st := l2.PrefetchStats()
	if st.Issued == 0 {
		t.Fatal("no prefetch walks issued for a repeated sequence")
	}
	if st.Useful == 0 {
		t.Fatal("useful prefetch not counted")
	}
}

func TestL2PrefetchNeverDelaysDemand(t *testing.T) {
	l2, w := newL2(1, 0, nil)
	l2.SetPrefetcher(NewPrefetcher(), func(uint8, uint64) bool { return true })
	w.queued = 1 // walker busy: prefetches must not be issued
	seq := []uint64{100, 104, 100, 104, 100}
	at := int64(0)
	for _, vpn := range seq {
		submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: vpn}, at, at+3, nil)
		at += 10
	}
	if l2.PrefetchStats().Issued != 0 {
		t.Fatal("prefetch issued while the walker had a backlog")
	}
	_ = w
}

// countingWalker is a fakeWalker whose backlog grows with every walk started.
type countingWalker struct{ fakeWalker }

func (c *countingWalker) StartWalk(now int64, asid uint8, appID int, vpn uint64, origin ptw.WalkOrigin) {
	c.fakeWalker.StartWalk(now, asid, appID, vpn, origin)
	c.queued++
}

// TestL2StalledServedFIFO parks lookups behind a full walker backlog and lets
// the backlog admit them one tick at a time: walks must start in arrival
// order. (That a drained queue holds no pointer to a request any more is
// engine.Queue's to keep: TestQueueMatchesSlice.)
func TestL2StalledServedFIFO(t *testing.T) {
	w := &countingWalker{}
	l2 := NewL2(L2Config{Entries: 32, Ways: 4, Ports: 2, Latency: 1, QueueCap: 16, NumApps: 1}, w, nil, new(L1TLBs))
	w.queued = walkBacklogLimit
	const n = 10
	for i := 0; i < n; i++ {
		submitAndTick(t, l2, memreq.Trans{ASID: 1, VPN: uint64(0x900 + i)}, int64(4*i), int64(4*i+3), nil)
	}
	if l2.stalled.Len() != n || l2.QueueLen() != n || len(w.walks) != 0 {
		t.Fatalf("parked %d lookups (QueueLen %d, %d walks started), want %d/%d/0", l2.stalled.Len(), l2.QueueLen(), len(w.walks), n, n)
	}
	for now := int64(100); l2.stalled.Len() > 0; now++ {
		w.queued = walkBacklogLimit - 1 // one free slot per tick
		l2.Tick(now)
		if want := n - int(now-99); l2.stalled.Len() != want {
			t.Fatalf("tick %d left %d stalled lookups, want %d", now, l2.stalled.Len(), want)
		}
	}
	for i, vpn := range w.vpns {
		if vpn != uint64(0x900+i) {
			t.Fatalf("walks started for VPNs %#x, want arrival order", w.vpns)
		}
	}
}
