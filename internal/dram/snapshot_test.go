package dram

import (
	"testing"

	"masksim/internal/memreq"
)

func TestQueueSnapshotBreakdown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	d := New(cfg, SchedConfig{Policy: MASK, Apps: 2}, new(memreq.Pool))

	// Addresses on channel 0: frame numbers divisible by cfg.Channels.
	addr := func(frame uint64) uint64 { return frame << frameShift }
	for i := uint64(0); i < 5; i++ {
		if !d.Submit(0, newReq(d, memreq.Request{Kind: memreq.Read, Class: memreq.Data, AppID: 1, Addr: addr(2 * i)}, nil)) {
			t.Fatal("data submit refused")
		}
	}
	for i := uint64(0); i < 3; i++ {
		if !d.Submit(0, newReq(d, memreq.Request{Kind: memreq.Read, Class: memreq.Translation, AppID: 0, Addr: addr(2 * i)}, nil)) {
			t.Fatal("translation submit refused")
		}
	}

	snap := d.QueueSnapshot(nil)
	if len(snap) != 2 {
		t.Fatalf("%d channel snapshots, want 2", len(snap))
	}
	c0 := snap[0]
	if c0.Golden != 3 || c0.Silver != 0 || c0.Normal != 5 {
		t.Fatalf("channel 0 breakdown = %d/%d/%d, want 3 golden, 0 silver, 5 normal",
			c0.Golden, c0.Silver, c0.Normal)
	}
	if c0.Total() != d.QueueLen() {
		t.Fatalf("snapshot total %d != QueueLen %d", c0.Total(), d.QueueLen())
	}
	perBankSum := 0
	for _, n := range c0.PerBank {
		perBankSum += n
	}
	if perBankSum != c0.Total() {
		t.Fatalf("per-bank counts sum to %d, want %d", perBankSum, c0.Total())
	}
	if snap[1].Total() != 0 {
		t.Fatalf("channel 1 reports %d queued requests, want 0", snap[1].Total())
	}

	// Reuse: a second snapshot into the same backing slices must not grow.
	snap2 := d.QueueSnapshot(snap)
	if &snap2[0] != &snap[0] {
		t.Fatal("snapshot reallocated despite sufficient capacity")
	}
}

func TestQueueSnapshotPlainSchedulers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.QueueCap = 0
	d := New(cfg, SchedConfig{}, new(memreq.Pool))
	d.Submit(0, newReq(d, memreq.Request{Kind: memreq.Read, Class: memreq.Translation, Addr: 0}, nil))
	d.Submit(0, newReq(d, memreq.Request{Kind: memreq.Read, Class: memreq.Data, Addr: 64}, nil))
	snap := d.QueueSnapshot(nil)
	if snap[0].Golden != 0 || snap[0].Normal != 2 {
		t.Fatalf("FR-FCFS breakdown = %+v, want everything in Normal", snap[0])
	}
}
