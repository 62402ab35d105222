package memreq

import "testing"

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

func TestPoolRecyclesOnComplete(t *testing.T) {
	p, rt := sinkPool(func(int64, *Request) {})
	r := p.Get()
	r.Addr, r.Ret = 0x1000, rt
	if p.Live() != 1 {
		t.Fatalf("%d requests live after Get, want 1", p.Live())
	}
	p.Complete(r, 1, ServedL1)
	if p.Live() != 0 {
		t.Fatalf("%d requests live after Complete, want 0", p.Live())
	}
	r2 := p.Get()
	if r2 != r {
		t.Fatal("Get did not reuse the recycled request")
	}
	if *r2 != (Request{}) {
		t.Fatalf("recycled request not zeroed: %+v", r2)
	}
	if p.free.Gets != 2 || p.free.Allocs != 1 {
		t.Fatalf("stats Gets=%d Allocs=%d, want 2/1", p.free.Gets, p.free.Allocs)
	}
}

func TestPooledDoneRunsBeforeRecycle(t *testing.T) {
	var r *Request
	ran := false
	var p *Pool
	p, rt := sinkPool(func(now int64, req *Request) {
		ran = true
		if p.Live() != 1 {
			t.Error("request recycled before its sink returned")
		}
		if req != r {
			t.Error("sink received a different request")
		}
	})
	r = p.Get()
	r.Ret = rt
	p.Complete(r, 3, ServedDRAM)
	if !ran {
		t.Fatal("sink not invoked")
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	// A sink completing the request it was handed completes it twice.
	var p *Pool
	p, rt := sinkPool(func(now int64, req *Request) { p.Complete(req, now, ServedL2) })
	r := p.Get()
	r.Ret = rt
	mustPanic(t, "memreq: Complete on a recycled Request (use-after-done)", func() {
		p.Complete(r, 1, ServedL1)
	})
}

func TestCompleteAfterRecyclePanics(t *testing.T) {
	var p Pool
	r := p.Get()
	p.Complete(r, 1, ServedL1) // recycled into p
	mustPanic(t, "memreq: Complete on a recycled Request (use-after-done)", func() {
		p.Complete(r, 2, ServedL2)
	})
}
