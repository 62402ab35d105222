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
	var p Pool
	r := p.Get()
	r.Addr = 0x1000
	if p.Live() != 1 {
		t.Fatalf("%d requests live after Get, want 1", p.Live())
	}
	r.Complete(1, ServedL1)
	if p.Live() != 0 {
		t.Fatalf("%d requests live after Complete, want 0", p.Live())
	}
	r2 := p.Get()
	if r2 != r {
		t.Fatal("Get did not reuse the recycled request")
	}
	if r2.Addr != 0 || r2.Served != ServedNone || r2.Ret != nil {
		t.Fatalf("recycled request not zeroed: %+v", r2)
	}
	if p.free.Gets != 2 || p.free.Allocs != 1 {
		t.Fatalf("stats Gets=%d Allocs=%d, want 2/1", p.free.Gets, p.free.Allocs)
	}
}

func TestPooledDoneRunsBeforeRecycle(t *testing.T) {
	var p Pool
	r := p.Get()
	ran := false
	r.Ret = SinkFunc(func(now int64, req *Request) {
		ran = true
		if p.Live() != 1 {
			t.Error("request recycled before its sink returned")
		}
		if req != r {
			t.Error("sink received a different request")
		}
	})
	r.Complete(3, ServedDRAM)
	if !ran {
		t.Fatal("sink not invoked")
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	r := &Request{}
	r.Complete(1, ServedL1)
	mustPanic(t, "memreq: Request completed twice", func() {
		r.Complete(2, ServedL2)
	})
}

func TestCompleteAfterRecyclePanics(t *testing.T) {
	var p Pool
	r := p.Get()
	r.Complete(1, ServedL1) // recycled into p
	mustPanic(t, "memreq: Complete on a recycled Request (use-after-done)", func() {
		r.Complete(2, ServedL2)
	})
}

func TestTransPoolLifecycle(t *testing.T) {
	var p TransPool
	tr := p.Get()
	tr.VPN = 42
	var gotAt int64
	tr.Ret = TransSinkFunc(func(now int64, got *TransReq) {
		if got != tr {
			t.Error("sink received a different TransReq")
		}
		gotAt = now
	})
	tr.Complete(7)
	if gotAt != 7 {
		t.Fatalf("sink ran at cycle %d, want 7", gotAt)
	}
	if p.Live() != 0 {
		t.Fatal("TransReq not recycled on Complete")
	}
	mustPanic(t, "memreq: Complete on a recycled TransReq (use-after-done)", func() {
		tr.Complete(8)
	})
	tr2 := p.Get()
	if tr2 != tr || tr2.VPN != 0 || tr2.Ret != nil {
		t.Fatalf("recycled TransReq not zeroed or not reused: %+v", tr2)
	}
}

func TestTransReqDoubleCompletePanics(t *testing.T) {
	tr := &TransReq{}
	tr.Complete(1)
	mustPanic(t, "memreq: TransReq completed twice", func() {
		tr.Complete(2)
	})
}
