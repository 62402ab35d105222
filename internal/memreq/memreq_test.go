package memreq

import "testing"

func TestCompleteInvokesDoneOnce(t *testing.T) {
	calls := 0
	r := &Request{Ret: SinkFunc(func(now int64, req *Request) { calls++ })}
	r.Complete(5, ServedL2)
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
	r := &Request{Served: ServedDRAM}
	r.Complete(2, ServedL1)
	if r.Served != ServedDRAM {
		t.Fatalf("Served=%v, want the pre-assigned level (ServedDRAM)", r.Served)
	}
}

func TestCompleteNilDone(t *testing.T) {
	r := &Request{Kind: Write}
	r.Complete(1, ServedL1) // must not panic
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

func TestTransReqCarriesTokenState(t *testing.T) {
	tr := &TransReq{VPN: 0x1234, HasToken: true, StalledWarps: 1}
	tr.StalledWarps++
	if tr.StalledWarps != 2 || !tr.HasToken {
		t.Fatal("TransReq bookkeeping broken")
	}
}
