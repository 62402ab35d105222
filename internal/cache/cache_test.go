package cache

import (
	"testing"

	"masksim/internal/memreq"
)

// fakeBackend records submitted requests and completes reads on demand,
// through the pool of the cache it backs.
type fakeBackend struct {
	reqs   []*memreq.Request
	reject bool
	pool   memreq.Pool
}

func (f *fakeBackend) Submit(now int64, r *memreq.Request) bool {
	if f.reject {
		return false
	}
	f.reqs = append(f.reqs, r)
	return true
}

// completeAll finishes every outstanding read at the given cycle.
func (f *fakeBackend) completeAll(now int64) {
	reqs := f.reqs
	f.reqs = nil
	for _, r := range reqs {
		if r.Kind == memreq.Read {
			f.pool.Complete(r, now, memreq.ServedDRAM)
		}
	}
}

func (f *fakeBackend) countKind(k memreq.Kind) int {
	n := 0
	for _, r := range f.reqs {
		if r.Kind == k {
			n++
		}
	}
	return n
}

func smallCache(be *fakeBackend, writeBack bool) *Cache {
	return New(Config{
		Name: "test", SizeBytes: 1024, Ways: 2, LineSize: 64,
		Banks: 1, PortsPerBank: 4, Latency: 1, WriteBack: writeBack,
	}, be, &be.pool)
}

// newReq takes a request from c's pool with r's fields and, if done is not
// nil, a route to done.
func newReq(c *Cache, r memreq.Request, done func(int64, *memreq.Request)) *memreq.Request {
	if done != nil {
		r.Ret = c.pool.Register(memreq.SinkFunc(done))
	}
	p := c.pool.Get()
	*p = r
	return p
}

// read submits a read and returns a pointer to its completion flag.
func read(c *Cache, now int64, addr uint64) *bool {
	done := new(bool)
	r := newReq(c, memreq.Request{Kind: memreq.Read, Addr: addr, Issue: now},
		func(int64, *memreq.Request) { *done = true })
	if !c.Submit(now, r) {
		panic("submit rejected")
	}
	return done
}

func drive(c *Cache, from, to int64) {
	for now := from; now <= to; now++ {
		c.Tick(now)
	}
}

// contains reports whether the line holding addr is present in c.
func contains(c *Cache, addr uint64) bool {
	lineAddr := addr >> c.lineShift
	base := c.setOf(lineAddr) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if ln := &c.lines[base+w]; ln.Valid && ln.Tag == lineAddr {
			return true
		}
	}
	return false
}

func TestReadMissFetchesAndFills(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	done := read(c, 0, 0x1000)
	drive(c, 0, 2)
	if *done {
		t.Fatal("read completed without backend response")
	}
	if len(be.reqs) != 1 {
		t.Fatalf("backend saw %d requests, want 1 fill", len(be.reqs))
	}
	be.completeAll(10)
	if !*done {
		t.Fatal("read not completed after fill")
	}
	if !contains(c, 0x1000) {
		t.Fatal("line not installed after fill")
	}
}

func TestReadHitAfterFill(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	read(c, 0, 0x2000)
	drive(c, 0, 2)
	be.completeAll(5)

	done := read(c, 6, 0x2000)
	drive(c, 6, 8)
	if !*done {
		t.Fatal("hit did not complete")
	}
	if len(be.reqs) != 0 {
		t.Fatal("hit went to backend")
	}
	st := c.LevelStats(0)
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestMSHRMergesSameLine(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	d1 := read(c, 0, 0x3000)
	d2 := read(c, 0, 0x3008) // same 64B line
	drive(c, 0, 2)
	if len(be.reqs) != 1 {
		t.Fatalf("backend saw %d fills, want 1 (merged)", len(be.reqs))
	}
	be.completeAll(5)
	if !*d1 || !*d2 {
		t.Fatal("merged requests not both completed")
	}
	if c.OutstandingMisses() != 0 {
		t.Fatal("MSHR not released")
	}
}

func TestLRUReplacement(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false) // 1024B/64B = 16 lines, 2-way, 8 sets
	// Three lines mapping to the same set (stride = sets*lineSize = 512B).
	addrs := []uint64{0x0000, 0x0200, 0x0400}
	for i, a := range addrs[:2] {
		read(c, int64(i*10), a)
		drive(c, int64(i*10), int64(i*10+2))
		be.completeAll(int64(i*10 + 3))
	}
	// Touch addr[0] so addr[1] becomes LRU.
	read(c, 30, addrs[0])
	drive(c, 30, 32)
	// Fill addr[2]; victim must be addrs[1].
	read(c, 40, addrs[2])
	drive(c, 40, 42)
	be.completeAll(45)
	if !contains(c, addrs[0]) || !contains(c, addrs[2]) {
		t.Fatal("expected lines missing")
	}
	if contains(c, addrs[1]) {
		t.Fatal("LRU victim still present")
	}
}

func TestWriteThroughForwards(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	w := newReq(c, memreq.Request{Kind: memreq.Write, Addr: 0x5000}, nil)
	c.Submit(0, w)
	drive(c, 0, 2)
	if be.countKind(memreq.Write) != 1 {
		t.Fatal("write-through did not forward the store")
	}
	if contains(c, 0x5000) {
		t.Fatal("write-through no-allocate installed a line")
	}
}

func TestWriteCombining(t *testing.T) {
	be := &fakeBackend{}
	c := New(Config{
		Name: "wc", SizeBytes: 1024, Ways: 2, LineSize: 64,
		Banks: 1, PortsPerBank: 8, Latency: 1, WriteCombineWindow: 100,
	}, be, &be.pool)
	for i := 0; i < 10; i++ {
		c.Submit(int64(i), newReq(c, memreq.Request{Kind: memreq.Write, Addr: 0x5000}, nil))
	}
	drive(c, 0, 12)
	if got := be.countKind(memreq.Write); got != 1 {
		t.Fatalf("combining forwarded %d writes, want 1", got)
	}
	// After the window expires the next store forwards again.
	c.Submit(300, newReq(c, memreq.Request{Kind: memreq.Write, Addr: 0x5000}, nil))
	drive(c, 300, 302)
	if got := be.countKind(memreq.Write); got != 2 {
		t.Fatalf("expired window forwarded %d writes total, want 2", got)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, true)
	// Write misses allocate and dirty the line.
	c.Submit(0, newReq(c, memreq.Request{Kind: memreq.Write, Addr: 0x0000}, nil))
	drive(c, 0, 2)
	be.reqs = nil // drop the allocate fetch
	// Evict it by filling two more lines in the same set.
	for i, a := range []uint64{0x0200, 0x0400} {
		read(c, int64(10+i*10), a)
		drive(c, int64(10+i*10), int64(12+i*10))
		be.completeAll(int64(13 + i*10))
	}
	drive(c, 40, 41)
	if be.countKind(memreq.Write) != 1 {
		t.Fatalf("dirty eviction produced %d writebacks, want 1", be.countKind(memreq.Write))
	}
}

func TestBackendRejectionRetries(t *testing.T) {
	be := &fakeBackend{reject: true}
	c := smallCache(be, false)
	done := read(c, 0, 0x7000)
	drive(c, 0, 5)
	if len(be.reqs) != 0 {
		t.Fatal("rejected submit recorded")
	}
	be.reject = false
	drive(c, 6, 8)
	if len(be.reqs) != 1 {
		t.Fatalf("retry did not reach backend (%d reqs)", len(be.reqs))
	}
	be.completeAll(9)
	if !*done {
		t.Fatal("request never completed after retry")
	}
}

func TestQueueCapacityBackpressure(t *testing.T) {
	be := &fakeBackend{}
	c := New(Config{
		Name: "q", SizeBytes: 1024, Ways: 2, LineSize: 64,
		Banks: 1, PortsPerBank: 1, Latency: 1, QueueCap: 2,
	}, be, &be.pool)
	a := c.Submit(0, newReq(c, memreq.Request{Kind: memreq.Read, Addr: 0}, nil))
	b := c.Submit(0, newReq(c, memreq.Request{Kind: memreq.Read, Addr: 64}, nil))
	full := c.Submit(0, newReq(c, memreq.Request{Kind: memreq.Read, Addr: 128}, nil))
	if !a || !b || full {
		t.Fatalf("capacity behaviour wrong: %v %v %v", a, b, full)
	}
}

func TestBypassSkipsProbeAndFill(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	c.SetBypass(func(r *memreq.Request) bool { return r.Class == memreq.Translation })
	done := new(bool)
	r := newReq(c, memreq.Request{Kind: memreq.Read, Class: memreq.Translation, WalkLevel: 4, Addr: 0x8000},
		func(int64, *memreq.Request) { *done = true })
	c.Submit(0, r)
	if len(be.reqs) != 1 {
		t.Fatal("bypass did not forward immediately")
	}
	be.completeAll(3)
	if !*done {
		t.Fatal("bypassed request not completed")
	}
	if contains(c, 0x8000) {
		t.Fatal("bypassed line was filled")
	}
	if c.LevelStats(4).Bypasses != 1 {
		t.Fatal("bypass not counted")
	}
}

func TestBypassMSHRCoalesces(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	c.SetBypass(func(r *memreq.Request) bool { return true })
	var done1, done2 bool
	mk := func(flag *bool) *memreq.Request {
		return newReq(c, memreq.Request{Kind: memreq.Read, Class: memreq.Translation, WalkLevel: 4, Addr: 0x9000},
			func(int64, *memreq.Request) { *flag = true })
	}
	c.Submit(0, mk(&done1))
	c.Submit(0, mk(&done2))
	if len(be.reqs) != 1 {
		t.Fatalf("bypassed same-line reads not coalesced: %d fetches", len(be.reqs))
	}
	be.completeAll(5)
	if !done1 || !done2 {
		t.Fatal("coalesced bypass requests not both completed")
	}
}

func TestWayPartitioning(t *testing.T) {
	be := &fakeBackend{}
	c := New(Config{
		Name: "part", SizeBytes: 1024, Ways: 4, LineSize: 64,
		Banks: 1, PortsPerBank: 4, Latency: 1,
	}, be, &be.pool)
	c.SetWayPartition([]uint64{0b0011, 0b1100}) // app0 ways 0-1, app1 ways 2-3
	// App 0 fills three same-set lines; only two ways available, so one
	// evicts — but app 1's line in the same set must survive.
	// 1024/64/4 ways = 4 sets; same-set stride = 4*64 = 256.
	fill := func(app int, addr uint64, at int64) {
		r := newReq(c, memreq.Request{Kind: memreq.Read, Addr: addr, AppID: app}, nil)
		c.Submit(at, r)
		drive(c, at, at+2)
		be.completeAll(at + 3)
	}
	fill(1, 0x0000, 0)
	fill(0, 0x0100, 10)
	fill(0, 0x0200, 20)
	fill(0, 0x0300, 30) // evicts one of app0's lines
	if !contains(c, 0x0000) {
		t.Fatal("partitioning failed: app1's line evicted by app0")
	}
}

func TestEpochRollTracksRates(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	// One miss then one hit at data level.
	read(c, 0, 0xA000)
	drive(c, 0, 2)
	be.completeAll(3)
	read(c, 5, 0xA000)
	drive(c, 5, 7)
	c.EpochRoll()
	rate, ok := c.LastEpochHitRate(0)
	if !ok || rate != 0.5 {
		t.Fatalf("epoch hit rate = %v,%v; want 0.5,true", rate, ok)
	}
}

func TestFlushFraction(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	addrs := []uint64{0x0000, 0x0040, 0x0080, 0x00C0}
	for i, a := range addrs {
		read(c, int64(i*10), a)
		drive(c, int64(i*10), int64(i*10+2))
		be.completeAll(int64(i*10 + 3))
	}
	c.FlushFraction(100, 1.0)
	for _, a := range addrs {
		if contains(c, a) {
			t.Fatalf("line %#x survived full flush", a)
		}
	}
}

func TestATABypassPolicy(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	p := NewATABypass(c)

	// Seed epoch stats: data hits a lot, level 4 never.
	for i := 0; i < 100; i++ {
		c.recordHit(&memreq.Request{})
	}
	for i := 0; i < 100; i++ {
		c.recordMiss(&memreq.Request{WalkLevel: 4})
	}
	for i := 0; i < 100; i++ {
		c.recordHit(&memreq.Request{WalkLevel: 2})
	}
	p.Roll()
	if !p.state.BypassLevel[4] {
		t.Fatal("level 4 (0% hit) not bypassed when data hits 100%")
	}
	if p.state.BypassLevel[2] {
		t.Fatal("level 2 (100% hit) bypassed")
	}
	if p.ShouldBypass(&memreq.Request{Class: memreq.Data}) {
		t.Fatal("data request bypassed")
	}
	if !p.ShouldBypass(&memreq.Request{Class: memreq.Translation, WalkLevel: 4, Kind: memreq.Read}) {
		t.Fatal("level-4 translation not bypassed")
	}
}

func TestATABypassSampling(t *testing.T) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	p := NewATABypass(c)
	for i := 0; i < 10; i++ {
		c.recordHit(&memreq.Request{})
		c.recordMiss(&memreq.Request{WalkLevel: 4})
	}
	p.Roll()
	bypassed := 0
	const n = 320
	for i := 0; i < n; i++ {
		if p.ShouldBypass(&memreq.Request{Class: memreq.Translation, WalkLevel: 4}) {
			bypassed++
		}
	}
	if bypassed == n {
		t.Fatal("dueling sample never probed the cached path")
	}
	if bypassed < n*9/10-n/32-2 {
		t.Fatalf("too few bypasses: %d of %d", bypassed, n)
	}
}
