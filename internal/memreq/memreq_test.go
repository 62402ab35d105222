package memreq

import (
	"reflect"
	"testing"
	"unsafe"
)

// sinkPool returns a pool with fn registered under the returned route.
func sinkPool(fn func(now int64, r *Request)) (*Pool, Route) {
	p := new(Pool)
	return p, p.Register(SinkFunc(fn))
}

func TestCompleteInvokesDoneOnce(t *testing.T) {
	calls := 0
	p, rt := sinkPool(func(now int64, req *Request) { calls++ })
	r := p.Get()
	r.Ret = rt
	p.Complete(r, 5, ServedL2)
	if calls != 1 {
		t.Fatalf("sink called %d times", calls)
	}
	if r.Served != ServedL2 {
		t.Fatalf("Served=%v, want ServedL2", r.Served)
	}
}

func TestCompleteKeepsFirstServiceLevel(t *testing.T) {
	// MSHR completion paths pre-assign Served before calling Complete (the
	// fill's service level, not the waiting request's); Complete must keep
	// the pre-assigned level.
	var p Pool
	r := p.Get()
	r.Served = ServedDRAM
	p.Complete(r, 2, ServedL1)
	if r.Served != ServedDRAM {
		t.Fatalf("Served=%v, want the pre-assigned level (ServedDRAM)", r.Served)
	}
}

func TestCompleteNilDone(t *testing.T) {
	var p Pool
	r := p.Get()
	r.Kind = Write
	p.Complete(r, 1, ServedL1) // no route: must not panic
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestClassString(t *testing.T) {
	if Data.String() != "data" || Translation.String() != "translation" {
		t.Fatal("Class.String mismatch")
	}
}

// TestRequestsArePlainData pins that both request families hold no pointer
// of any kind, so a live request is its own checkpoint image, the chunks the
// pool carves requests from are memory the collector does not scan, and
// neither are the queues and miss tables that hold translations by value —
// and that they stay small.
func TestRequestsArePlainData(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		size uintptr
		max  uintptr
	}{
		{reflect.TypeFor[Request](), unsafe.Sizeof(Request{}), 56},
		{reflect.TypeFor[Trans](), unsafe.Sizeof(Trans{}), 24},
	} {
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
				reflect.Map, reflect.Func, reflect.Chan, reflect.String, reflect.Array, reflect.Struct:
				t.Errorf("%v.%s is a %v", c.typ, f.Name, f.Type.Kind())
			}
		}
		if c.size > c.max {
			t.Errorf("%v is %d bytes, want at most %d", c.typ, c.size, c.max)
		}
	}
}
