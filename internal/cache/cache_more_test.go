package cache

import (
	"testing"
	"testing/quick"

	"masksim/internal/memreq"
)

func TestMSHRCapRequeues(t *testing.T) {
	be := &fakeBackend{}
	c := New(Config{
		Name: "m", SizeBytes: 1024, Ways: 2, LineSize: 64,
		Banks: 1, PortsPerBank: 8, Latency: 1, MSHRs: 1,
	}, be, &be.pool)
	d1 := read(c, 0, 0x1000)
	d2 := read(c, 0, 0x2000) // distinct line: exceeds the single MSHR
	drive(c, 0, 3)
	if len(be.reqs) != 1 {
		t.Fatalf("MSHR cap violated: %d fills in flight", len(be.reqs))
	}
	be.completeAll(5)
	drive(c, 6, 10)
	be.completeAll(11)
	if !*d1 || !*d2 {
		t.Fatal("capped request lost")
	}
}

func TestMultiBankParallelService(t *testing.T) {
	be := &fakeBackend{}
	c := New(Config{
		Name: "b", SizeBytes: 4096, Ways: 2, LineSize: 64,
		Banks: 4, PortsPerBank: 1, Latency: 1,
	}, be, &be.pool)
	// Four reads on four different banks are all serviced in one tick.
	for i := uint64(0); i < 4; i++ {
		read(c, 0, i*64)
	}
	drive(c, 0, 1)
	if len(be.reqs) != 4 {
		t.Fatalf("%d fills after one service tick, want 4 (bank parallelism)", len(be.reqs))
	}
}

func TestPortLimitSerializes(t *testing.T) {
	be := &fakeBackend{}
	c := New(Config{
		Name: "p", SizeBytes: 4096, Ways: 2, LineSize: 64,
		Banks: 1, PortsPerBank: 1, Latency: 1,
	}, be, &be.pool)
	read(c, 0, 0)
	read(c, 0, 4096/2) // same bank (1 bank), distinct set
	drive(c, 0, 1)
	if len(be.reqs) != 1 {
		t.Fatalf("single-port bank served %d requests in one tick", len(be.reqs))
	}
	drive(c, 2, 2)
	if len(be.reqs) != 2 {
		t.Fatal("second request never served")
	}
}

func TestLatencyRespected(t *testing.T) {
	be := &fakeBackend{}
	c := New(Config{
		Name: "lat", SizeBytes: 1024, Ways: 2, LineSize: 64,
		Banks: 1, PortsPerBank: 1, Latency: 10,
	}, be, &be.pool)
	read(c, 0, 0x100)
	drive(c, 0, 9)
	if len(be.reqs) != 0 {
		t.Fatal("request serviced before its access latency elapsed")
	}
	drive(c, 10, 10)
	if len(be.reqs) != 1 {
		t.Fatal("request not serviced at latency boundary")
	}
}

// Property: under an arbitrary mix of reads, every submitted read completes
// exactly once after backend responses, and hit/miss counters reconcile
// with accesses.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(addrSeeds []uint16) bool {
		if len(addrSeeds) > 128 {
			addrSeeds = addrSeeds[:128]
		}
		be := &fakeBackend{}
		c := New(Config{
			Name: "prop", SizeBytes: 2048, Ways: 4, LineSize: 64,
			Banks: 2, PortsPerBank: 2, Latency: 1,
		}, be, &be.pool)
		completed := 0
		now := int64(0)
		for _, seed := range addrSeeds {
			addr := uint64(seed%512) << 6
			r := newReq(c, memreq.Request{Kind: memreq.Read, Addr: addr, Issue: now},
				func(int64, *memreq.Request) { completed++ })
			if !c.Submit(now, r) {
				return false
			}
			c.Tick(now)
			now++
			if now%7 == 0 {
				be.completeAll(now)
			}
		}
		for i := 0; i < 50; i++ {
			c.Tick(now)
			be.completeAll(now)
			now++
		}
		st := c.LevelStats(0)
		if st.Hits+st.Misses != st.Accesses {
			return false
		}
		return completed == len(addrSeeds) && c.OutstandingMisses() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	cases := []Config{
		{Name: "a", SizeBytes: 0, Ways: 2, LineSize: 64},
		{Name: "b", SizeBytes: 1024, Ways: 0, LineSize: 64},
		{Name: "c", SizeBytes: 1024, Ways: 2, LineSize: 60}, // not power of two
		{Name: "d", SizeBytes: 64, Ways: 2, LineSize: 64},   // fewer lines than ways
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s did not panic", cfg.Name)
				}
			}()
			New(cfg, &fakeBackend{}, new(memreq.Pool))
		}()
	}
}
