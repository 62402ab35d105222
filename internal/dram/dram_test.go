package dram

import (
	"testing"
	"testing/quick"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/rng"
)

func testConfig() Config {
	c := DefaultConfig()
	c.Channels = 2
	c.BanksPerChannel = 4
	return c
}

func newFRFCFSDRAM() *DRAM {
	cfg := testConfig()
	return New(cfg, SchedConfig{Apps: 2}, new(memreq.Pool))
}

// newReq takes a request from d's pool with r's fields and, if done is not
// nil, a route to done.
func newReq(d *DRAM, r memreq.Request, done func(int64, *memreq.Request)) *memreq.Request {
	if done != nil {
		r.Ret = d.pool.Register(memreq.SinkFunc(done))
	}
	p := d.pool.Get()
	*p = r
	return p
}

func drive(d *DRAM, from, to int64) {
	for now := from; now <= to; now++ {
		d.Tick(now)
	}
}

func TestMapDeterministicAndInRange(t *testing.T) {
	d := newFRFCFSDRAM()
	cfg := d.cfg
	f := func(addr uint64) bool {
		c1, b1, r1 := d.Map(addr)
		c2, b2, r2 := d.Map(addr)
		if c1 != c2 || b1 != b2 || r1 != r2 {
			return false
		}
		return c1 >= 0 && c1 < cfg.Channels && b1 >= 0 && b1 < cfg.BanksPerChannel && r1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameGranularChannelMapping(t *testing.T) {
	d := newFRFCFSDRAM()
	// All lines of one 4KB frame share a channel.
	frame := uint64(123)
	base := frame << 12
	c0, _, _ := d.Map(base)
	for off := uint64(64); off < 4096; off += 64 {
		c, _, _ := d.Map(base + off)
		if c != c0 {
			t.Fatalf("line at offset %d on channel %d, frame base on %d", off, c, c0)
		}
	}
	if c0 != d.ChannelOfFrame(frame) {
		t.Fatal("ChannelOfFrame disagrees with Map")
	}
}

func TestSameFrameSameRow(t *testing.T) {
	d := newFRFCFSDRAM() // RowBytes = 4096 = frame size
	_, b1, r1 := d.Map(0x5000)
	_, b2, r2 := d.Map(0x5FC0)
	if b1 != b2 || r1 != r2 {
		t.Fatal("lines of one frame landed on different rows")
	}
}

func TestReadCompletes(t *testing.T) {
	d := newFRFCFSDRAM()
	done := false
	r := newReq(d, memreq.Request{Kind: memreq.Read, Addr: 0x1000}, func(int64, *memreq.Request) { done = true })
	if !d.Submit(0, r) {
		t.Fatal("submit rejected")
	}
	drive(d, 0, 200)
	if !done {
		t.Fatal("read never completed")
	}
	if r.Served != memreq.ServedDRAM {
		t.Fatalf("Served=%v", r.Served)
	}
	if d.Class[memreq.Data].Requests != 1 {
		t.Fatal("class counter not updated")
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	latency := func(a1, a2 uint64) int64 {
		d := newFRFCFSDRAM()
		var t1, t2 int64
		d.Submit(0, newReq(d, memreq.Request{Kind: memreq.Read, Addr: a1}, func(now int64, _ *memreq.Request) { t1 = now }))
		drive(d, 0, 300)
		d.Submit(301, newReq(d, memreq.Request{Kind: memreq.Read, Addr: a2}, func(now int64, _ *memreq.Request) { t2 = now }))
		drive(d, 301, 700)
		_ = t1
		return t2 - 301
	}
	// Same frame (row hit) vs same bank different row (conflict):
	// bank stride = channels*frameSize... frames on one (channel,bank)
	// repeat every channels*banks frames.
	hit := latency(0x0000, 0x0040)
	conflictAddr := uint64(2*4) << 12 // frame 8 → same channel 0, same bank 0
	conflict := latency(0x0000, conflictAddr)
	if hit >= conflict {
		t.Fatalf("row hit latency %d not faster than conflict %d", hit, conflict)
	}
}

func TestClosedRowPolicy(t *testing.T) {
	cfg := testConfig()
	cfg.ClosedRowPolicy = true
	d := New(cfg, SchedConfig{}, new(memreq.Pool))
	var t1, t2 int64
	d.Submit(0, newReq(d, memreq.Request{Kind: memreq.Read, Addr: 0x0000}, func(now int64, _ *memreq.Request) { t1 = now }))
	drive(d, 0, 300)
	d.Submit(301, newReq(d, memreq.Request{Kind: memreq.Read, Addr: 0x0040}, func(now int64, _ *memreq.Request) { t2 = now }))
	drive(d, 301, 700)
	_ = t1
	// Under the closed-row policy the second access cannot be a row hit.
	if got := t2 - 301; got < cfg.RowClosedLatency {
		t.Fatalf("closed-row access took %d (< closed latency %d)", got, cfg.RowClosedLatency)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	s := newSched(SchedConfig{Policy: FRFCFS}, 0)
	banks := []Bank{{OpenRow: 7, ReadyAt: 0}, {OpenRow: -1, ReadyAt: 0}}
	older := &Queued{Req: &memreq.Request{}, Arrival: 0, Bank: 1, Row: 3}
	hit := &Queued{Req: &memreq.Request{}, Arrival: 5, Bank: 0, Row: 7}
	s.enqueue(older)
	s.enqueue(hit)
	if got := s.pick(10, banks); got != hit {
		t.Fatal("FR-FCFS did not prefer the row hit over the older request")
	}
	if got := s.pick(10, banks); got != older {
		t.Fatal("remaining request not served")
	}
}

func TestFRFCFSSkipsBusyBanks(t *testing.T) {
	s := newSched(SchedConfig{Policy: FRFCFS}, 0)
	banks := []Bank{{OpenRow: -1, ReadyAt: 100}, {OpenRow: -1, ReadyAt: 0}}
	blocked := &Queued{Req: &memreq.Request{}, Arrival: 0, Bank: 0, Row: 1}
	ready := &Queued{Req: &memreq.Request{}, Arrival: 5, Bank: 1, Row: 2}
	s.enqueue(blocked)
	s.enqueue(ready)
	if got := s.pick(10, banks); got != ready {
		t.Fatal("scheduler picked a busy bank")
	}
}

func TestFCFSOrder(t *testing.T) {
	s := newSched(SchedConfig{Policy: FCFS}, 0)
	banks := []Bank{{OpenRow: 7, ReadyAt: 0}}
	first := &Queued{Req: &memreq.Request{}, Arrival: 0, Bank: 0, Row: 3}
	hit := &Queued{Req: &memreq.Request{}, Arrival: 5, Bank: 0, Row: 7}
	s.enqueue(first)
	s.enqueue(hit)
	if got := s.pick(10, banks); got != first {
		t.Fatal("FCFS reordered requests")
	}
}

func TestQueueCapacity(t *testing.T) {
	s := newSched(SchedConfig{Policy: FRFCFS}, 2)
	q := func() *Queued { return &Queued{Req: &memreq.Request{}} }
	if !s.enqueue(q()) || !s.enqueue(q()) {
		t.Fatal("enqueue under capacity failed")
	}
	if s.enqueue(q()) {
		t.Fatal("enqueue over capacity succeeded")
	}
}

func TestMASKGoldenPriority(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 500}, 0)
	banks := []Bank{{OpenRow: -1, ReadyAt: 0}}
	data := &Queued{Req: &memreq.Request{Class: memreq.Data, AppID: 1}, Arrival: 0, Bank: 0, Row: 1}
	trans := &Queued{Req: &memreq.Request{Class: memreq.Translation}, Arrival: 5, Bank: 0, Row: 2}
	s.enqueue(data)
	s.enqueue(trans)
	if got := s.pick(10, banks); got != trans {
		t.Fatal("golden queue did not outrank data")
	}
}

func TestMASKGoldenDefersToRowHitRun(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 500}, 0)
	banks := []Bank{{OpenRow: 7, ReadyAt: 0}}
	hit := &Queued{Req: &memreq.Request{Class: memreq.Data, AppID: 1}, Arrival: 0, Bank: 0, Row: 7}
	trans := &Queued{Req: &memreq.Request{Class: memreq.Translation}, Arrival: 5, Bank: 0, Row: 2}
	s.enqueue(hit)
	s.enqueue(trans)
	if got := s.pick(10, banks); got != hit {
		t.Fatal("golden request interrupted a pending row-hit")
	}
	// Once the run drains, the translation goes next.
	if got := s.pick(11, banks); got != trans {
		t.Fatal("translation not served after the run drained")
	}
}

func TestMASKGoldenAgeCapBeatsStarvation(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 500}, 0)
	banks := []Bank{{OpenRow: 7, ReadyAt: 0}}
	trans := &Queued{Req: &memreq.Request{Class: memreq.Translation}, Arrival: 0, Bank: 0, Row: 2}
	s.enqueue(trans)
	hit := &Queued{Req: &memreq.Request{Class: memreq.Data, AppID: 1}, Arrival: 1, Bank: 0, Row: 7}
	s.enqueue(hit)
	// Beyond the age cap the translation is served despite the pending hit.
	if got := s.pick(goldenAgeCap+1, banks); got != trans {
		t.Fatal("aged golden request still deferred")
	}
}

func TestMASKSilverQuotaRotation(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 4}, 0) // quota = 4/2 = 2 per app
	if image(s).SilverApp != 0 {
		t.Fatal("initial silver app not 0")
	}
	mk := func(app int) *Queued {
		return &Queued{Req: &memreq.Request{Class: memreq.Data, AppID: app}}
	}
	s.enqueue(mk(0))
	s.enqueue(mk(0)) // exhausts app 0's quota
	if image(s).SilverApp != 1 {
		t.Fatalf("silver turn did not rotate; still %d", image(s).SilverApp)
	}
	g, sv, n := queueLens(s)
	if g != 0 || sv != 2 || n != 0 {
		t.Fatalf("queue lens %d/%d/%d", g, sv, n)
	}
	// App 0 (no longer silver) lands in normal.
	s.enqueue(mk(0))
	_, _, n = queueLens(s)
	if n != 1 {
		t.Fatal("non-silver app's request not in normal queue")
	}
}

func TestMASKThreshZeroDisablesSilver(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 0}, 0)
	q := &Queued{Req: &memreq.Request{Class: memreq.Data, AppID: 0}}
	s.enqueue(q)
	_, sv, n := queueLens(s)
	if sv != 0 || n != 1 {
		t.Fatalf("silver disabled but lens silver=%d normal=%d", sv, n)
	}
}

func TestMASKEpochRotatesSilver(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 3, ThreshMax: 300}, 0)
	was := image(s).SilverApp
	s.epoch()
	if image(s).SilverApp == was {
		t.Fatal("epoch did not rotate the silver turn")
	}
}

func TestMASKQuotaFollowsPressure(t *testing.T) {
	pressure := func(app int) (float64, float64) {
		if app == 0 {
			return 10, 10 // 100
		}
		return 1, 1 // 1
	}
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 500, Pressure: pressure}, 0)
	q0 := s.quotaFor(0)
	q1 := s.quotaFor(1)
	if q0 <= q1 {
		t.Fatalf("quota does not follow pressure: %d vs %d", q0, q1)
	}
}

func TestBandwidthCounters(t *testing.T) {
	d := newFRFCFSDRAM()
	for i := 0; i < 10; i++ {
		cls := memreq.Data
		if i%2 == 0 {
			cls = memreq.Translation
		}
		d.Submit(int64(i), newReq(d, memreq.Request{Kind: memreq.Read, Class: cls,
			Addr: uint64(i) << 12, AppID: i % 2}, nil))
	}
	drive(d, 0, 500)
	if d.Class[memreq.Data].BusCycles == 0 || d.Class[memreq.Translation].BusCycles == 0 {
		t.Fatal("bus cycle counters not updated")
	}
	if d.BandwidthUtil(memreq.Data, 501) <= 0 {
		t.Fatal("bandwidth utilization is zero")
	}
	if d.AppBusCycles(0) == 0 || d.AppBusCycles(1) == 0 {
		t.Fatal("per-app bus counters not updated")
	}
}

// Property: every submitted read completes exactly once within a bounded
// number of cycles, regardless of addresses.
func TestAllReadsCompleteProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		if len(addrs) > 64 {
			addrs = addrs[:64]
		}
		d := newFRFCFSDRAM()
		completed := 0
		for i, a := range addrs {
			ok := d.Submit(int64(i), newReq(d, memreq.Request{Kind: memreq.Read, Addr: uint64(a) << 8}, func(int64, *memreq.Request) { completed++ }))
			if !ok {
				return false
			}
		}
		drive(d, 0, int64(200*len(addrs)+500))
		return completed == len(addrs) && d.Inflight() == 0 && d.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionWatermarkExact checks the per-channel nextFinish that lets
// Tick skip the completion scan: after every cycle it equals the smallest
// finish still in flight and nothing due is left behind, also when finish
// times are not monotone in issue order (BusCycles 0: a row hit issued after
// a row conflict finishes before it).
func TestCompletionWatermarkExact(t *testing.T) {
	for _, busCycles := range []int64{0, 2} {
		cfg := testConfig()
		cfg.BusCycles = busCycles
		d := New(cfg, SchedConfig{}, new(memreq.Pool))
		var src rng.Source
		src.Seed(7)
		submitted, completed := 0, 0
		for now := int64(0); now < 8000; now++ {
			if now < 3000 && src.Uint64()%3 == 0 {
				if d.Submit(now, newReq(d, memreq.Request{Kind: memreq.Read, Addr: (src.Uint64() % 4096) << 8}, func(int64, *memreq.Request) { completed++ })) {
					submitted++
				}
			}
			d.Tick(now)
			want := int64(engine.NoEvent)
			for i := range d.channels {
				ch := &d.channels[i]
				low := int64(engine.NoEvent)
				for _, q := range ch.inflight {
					low = min(low, q.finish)
				}
				if ch.nextFinish != low || low <= now {
					t.Fatalf("BusCycles=%d cycle %d channel %d: nextFinish %d, earliest in-flight finish %d", busCycles, now, i, ch.nextFinish, low)
				}
				want = min(want, low, ch.sched.nextReady(now+1, ch.banks))
			}
			if got := d.NextEvent(now + 1); got != max(want, now+1) {
				t.Fatalf("BusCycles=%d cycle %d: NextEvent %d, want %d", busCycles, now, got, max(want, now+1))
			}
		}
		if submitted == 0 || completed != submitted {
			t.Fatalf("BusCycles=%d: %d of %d reads completed", busCycles, completed, submitted)
		}
	}
}
