package dram

import (
	"testing"

	"masksim/internal/memreq"
)

func BenchmarkFRFCFSPickDeepQueue(b *testing.B) {
	s := newSched(SchedConfig{Policy: FRFCFS}, 0)
	banks := make([]Bank, 16)
	for i := range banks {
		banks[i].OpenRow = -1
	}
	for i := 0; i < 64; i++ {
		s.enqueue(&Queued{
			Req: &memreq.Request{}, Arrival: int64(i),
			Bank: i % 16, Row: int64(i),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := s.pick(int64(1000+i), banks)
		if q != nil {
			s.enqueue(q) // keep the queue full
		}
	}
}

func BenchmarkDRAMTick(b *testing.B) {
	d := newFRFCFSDRAM()
	for i := 0; i < 32; i++ {
		d.Submit(0, newReq(d, memreq.Request{Kind: memreq.Read, Addr: uint64(i) << 12}, nil))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick(int64(i))
	}
}
