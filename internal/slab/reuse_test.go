package slab

import "testing"

// TestDonorHelpers pins what a constructor may assume of a buffer it takes
// from a donor: it is the donor's memory when that fits, and nothing the
// donor wrote is left anywhere in it, past the new length included.
func TestDonorHelpers(t *testing.T) {
	type thing struct {
		n   int
		buf []int
	}
	p := &thing{n: 7, buf: []int{1, 2, 3, 4}}
	q, d := Lift(p)
	if q != p || p.n != 0 || p.buf != nil || d.n != 7 || len(d.buf) != 4 {
		t.Fatalf("Lift: instance %+v (same %v), donor %+v", *p, q == p, d)
	}
	if fresh, zero := Lift[thing](nil); fresh == nil || fresh.n != 0 || zero.buf != nil {
		t.Fatal("Lift(nil) did not return a new instance and an empty donor")
	}

	old := d.buf[:2]
	got := Slice(old, 3)
	if &got[0] != &old[0] || len(got) != 3 {
		t.Fatalf("Slice did not reuse a 4-capacity array for 3 elements: len %d", len(got))
	}
	for i, v := range got[:cap(got)] {
		if v != 0 {
			t.Fatalf("Slice left %d at index %d", v, i)
		}
	}
	if grown := Slice(old, 5); len(grown) != 5 || &grown[0] == &old[0] {
		t.Fatal("Slice did not allocate for 5 elements over a 4-capacity array")
	}
	if empty := Slice([]int(nil), 0); empty != nil {
		t.Fatal("Slice(nil, 0) allocated")
	}

	small, large := make([]int, 3, KeepBytes/8), make([]int, 3, KeepBytes/8+1)
	if got := Grown(small); cap(got) != cap(small) || len(got) != 0 {
		t.Fatalf("Grown let a buffer of KeepBytes go: len %d cap %d", len(got), cap(got))
	}
	if Grown(large) != nil {
		t.Fatal("Grown kept a buffer past KeepBytes")
	}

	m := map[int]int{1: 1}
	if same := Map(m); len(same) != 0 || len(m) != 0 {
		t.Fatal("Map did not empty the donor's map")
	}
	if Map[int, int](nil) == nil {
		t.Fatal("Map(nil) returned nil")
	}

	subs := []thing{{n: 1}, {n: 2}, {n: 3}}[:1]
	if kept := Donors(subs, 2); len(kept) != 2 || kept[1].n != 2 || &kept[0] != &subs[0] {
		t.Fatalf("Donors did not look into the spare capacity: %+v", kept)
	}
	if grown := Donors(subs, 5); len(grown) != 5 || grown[2].n != 3 || grown[4].n != 0 {
		t.Fatalf("Donors did not carry every sub-donor into the grown list: %+v", grown)
	}
	ptrs := []*thing{{n: 1}, {n: 2}}[:1]
	if Donor(ptrs, 1) == nil || Donor(ptrs, 1).n != 2 || Donor(ptrs, 2) != nil || Donor[thing](nil, 0) != nil {
		t.Fatal("Donor did not look exactly as far as the list's capacity")
	}
}
