package cache

import (
	"testing"

	"masksim/internal/memreq"
)

func BenchmarkCacheHit(b *testing.B) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	read(c, 0, 0x1000)
	drive(c, 0, 2)
	be.completeAll(3)
	rt := c.pool.Register(memreq.SinkFunc(func(int64, *memreq.Request) {}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(10 + i*2)
		r := c.pool.Get()
		r.Kind, r.Addr, r.Ret = memreq.Read, 0x1000, rt
		c.Submit(now, r)
		c.Tick(now + 1)
	}
}

func BenchmarkCacheMissAndFill(b *testing.B) {
	be := &fakeBackend{}
	c := smallCache(be, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i * 3)
		read(c, now, uint64(i)<<6)
		c.Tick(now + 1)
		be.completeAll(now + 2)
	}
}
