package tlb

import (
	"testing"

	"masksim/internal/memreq"
)

func BenchmarkL1Hit(b *testing.B) {
	be := &fakeTransBackend{}
	l1, _ := newL1(1, 64, be)
	l1.Lookup(0, 42, 0, 0, true)
	be.answerAll(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Lookup(int64(i), 42, 0, 0, true)
	}
}

func BenchmarkL2ProbeHit(b *testing.B) {
	l2, w := newL2(1, 0, nil)
	l1 := submit(b, l2, memreq.Trans{ASID: 1, VPN: 9}, 0, nil)
	for now := int64(0); now < 4; now++ {
		l2.Tick(now)
	}
	w.completeAll(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(10 + i*2)
		l1.Flush() // the L1 TLB misses, the shared TLB hits
		l1.Lookup(now, 9, 0, 0, false)
		l2.Tick(now + 1)
	}
}
