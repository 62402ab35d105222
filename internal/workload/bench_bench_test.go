package workload

import "testing"

func BenchmarkNextMem(b *testing.B) {
	p := MustByName("3DS")
	s := NewStreamFactory(p, 1<<32, 4096, 64, 64, 1).stream(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NextMem()
	}
}
