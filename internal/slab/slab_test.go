package slab

import (
	"math/rand"
	"testing"
	"unsafe"
)

// obj is about the size of a pooled request, so chunk arithmetic in the tests
// resembles the real lists'.
type obj struct {
	id   int
	live bool
	pad  [12]uint64
}

// refList is the recycler every component hand-rolled before List: a slice of
// pointers, one new(T) per object. Kept as the behavioural reference.
type refList struct {
	free         []*obj
	Allocs, Gets uint64
}

func (l *refList) Get() *obj {
	l.Gets++
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free = l.free[:n-1]
		return p
	}
	l.Allocs++
	return new(obj)
}

func (l *refList) Put(p *obj) { l.free = append(l.free, p) }

func (l *refList) Len() int { return len(l.free) }

// wasReset is what the reset the tests rewind with leaves in an object.
var wasReset = obj{id: -1}

// drive applies one op sequence to both lists and checks they agree on every
// count (which of several interchangeable free objects comes out next is not
// part of the contract). Each op byte selects Get, Put (of a live object
// chosen by the next byte) or Rewind — with a reset or without, throughout,
// by the first byte — which the reference takes as starting over.
func drive(t *testing.T, ops []byte) {
	t.Helper()
	var l List[obj]
	var ref refList
	var live, refLive []*obj
	var reset func(*obj)
	if len(ops) > 0 && ops[0] >= 128 {
		reset = func(p *obj) { *p = wasReset }
	}
	seen := make(map[*obj]bool)
	nextID := 0
	for i := 0; i < len(ops); i++ {
		switch op := ops[i] % 8; {
		case ops[i]%32 == 31:
			// Live objects die with the lap; nothing of it may show in the next.
			l.Rewind(reset)
			ref, live, refLive = refList{}, nil, nil
			clear(seen)
		case op < 4 || len(live) == 0:
			p, fresh := l.Get()
			rp := ref.Get()
			if fresh == seen[p] && (fresh || *p != wasReset) {
				t.Fatalf("op %d: fresh=%v for an object handed out before=%v holding %+v", i, fresh, seen[p], *p)
			}
			if fresh && *p != (obj{}) {
				t.Fatalf("op %d: fresh object not zero: %+v", i, *p)
			}
			if p.live {
				t.Fatalf("op %d: Get handed out object %d, which is still live", i, p.id)
			}
			seen[p] = true
			nextID++
			p.id, p.live = nextID, true
			live, refLive = append(live, p), append(refLive, rp)
		default:
			i++
			k := 0
			if i < len(ops) {
				k = int(ops[i]) % len(live)
			}
			live[k].live = false
			l.Put(live[k])
			ref.Put(refLive[k])
			live[k], refLive[k] = live[len(live)-1], refLive[len(refLive)-1]
			live, refLive = live[:len(live)-1], refLive[:len(refLive)-1]
		}
		if l.Allocs != ref.Allocs || l.Gets != ref.Gets || l.Len() != ref.Len() {
			t.Fatalf("op %d: Allocs/Gets/Len = %d/%d/%d, reference %d/%d/%d",
				i, l.Allocs, l.Gets, l.Len(), ref.Allocs, ref.Gets, ref.Len())
		}
	}
}

// TestSlabListMatchesReference drives List and the one-new-per-object
// recycler it replaced with seeded Get/Put/Rewind sequences.
func TestSlabListMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4000)
		rnd.Read(ops)
		if seed%2 == 0 {
			// Get-heavy prefix: grow well past several chunks first.
			for i := 0; i < 1500; i++ {
				ops[i] &^= 7
			}
		}
		drive(t, ops)
	}
}

func FuzzSlabList(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 7, 9, 0, 0, 5, 1, 0})
	f.Add([]byte{7, 200, 0, 0, 0, 4, 1, 4, 0, 7, 0, 0})
	f.Add([]byte{7, 0, 7, 1, 7, 2, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 0, 4, 0, 31, 0, 0, 0, 0, 7, 9, 31, 31, 0, 4, 0})
	f.Add([]byte{128, 0, 0, 4, 1, 0, 31, 0, 0, 0, 0, 0, 7, 2, 31, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { drive(t, ops) })
}

// TestRewindEqualsNew runs one Get/Put sequence on a new list, rewinds it and
// runs the sequence again: the second lap must hand out the same objects in
// the same order, fresh and zero, with the same counts after every step —
// and, while the list fits in the KeepBytes of chunks a rewind keeps, must
// not allocate.
func TestRewindEqualsNew(t *testing.T) {
	type step struct {
		p                *obj
		fresh            bool
		allocs, gets     uint64
		length, outgoing int
	}
	maxLive := KeepBytes / int(unsafe.Sizeof(obj{})) / 2 // fits whatever the chunk boundaries
	rnd := rand.New(rand.NewSource(3))
	ops := make([]int, 6000)
	for i := range ops {
		ops[i] = rnd.Intn(1 << 20)
	}
	var l List[obj]
	live := make([]*obj, 0, maxLive)
	lap := func(log []step) []step {
		live = live[:0]
		for _, op := range ops {
			st := step{outgoing: -1}
			if len(live) == 0 || op%3 != 0 && len(live) < maxLive {
				st.p, st.fresh = l.Get()
				if st.fresh && *st.p != (obj{}) {
					t.Fatalf("fresh object not zero: %+v", *st.p)
				}
				st.p.id, st.p.live = op, true
				live = append(live, st.p)
			} else {
				st.outgoing = op / 3 % len(live)
				l.Put(live[st.outgoing])
				live[st.outgoing] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			st.allocs, st.gets, st.length = l.Allocs, l.Gets, l.Len()
			if log != nil {
				log = append(log, st)
			}
		}
		return log
	}
	first := lap(make([]step, 0, len(ops)))
	l.Rewind(nil)
	if l.Allocs != 0 || l.Gets != 0 || l.Len() != 0 {
		t.Fatalf("rewound list reports Allocs/Gets/Len = %d/%d/%d", l.Allocs, l.Gets, l.Len())
	}
	second := lap(make([]step, 0, len(ops)))
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d: new list %+v, rewound list %+v", i, first[i], second[i])
		}
	}
	if n := testing.AllocsPerRun(1, func() {
		l.Rewind(nil)
		lap(nil)
	}); n != 0 {
		t.Fatalf("a lap on a rewound list made %.0f allocations", n)
	}
}

// TestRewindKeepsKeepBytes pins what a rewind lets go: a list that grew far
// past KeepBytes comes back holding at most that much, its oldest chunks, and
// is otherwise a new list — same counts, every object fresh and zero.
func TestRewindKeepsKeepBytes(t *testing.T) {
	const n = 2000 // 219 KB of objects
	var l List[obj]
	var held []*obj
	for i := 0; i < n; i++ {
		p, _ := l.Get()
		p.id = i + 1
		held = append(held, p)
	}
	for _, p := range held[:n/2] {
		l.Put(p)
	}
	first := held[0]
	l.Rewind(nil)
	kept := 0
	for _, c := range l.chunks {
		kept += len(c) * int(unsafe.Sizeof(obj{}))
	}
	if kept == 0 || kept > KeepBytes || cap(l.free)*8 > KeepBytes {
		t.Fatalf("rewound list keeps %d bytes of chunks and a %d-entry free stack, want at most %d bytes of each", kept, cap(l.free), KeepBytes)
	}
	for i := 0; i < n; i++ {
		p, fresh := l.Get()
		if !fresh || *p != (obj{}) {
			t.Fatalf("object %d of the second lap: fresh=%v %+v", i, fresh, *p)
		}
		if i == 0 && p != first {
			t.Fatal("the second lap did not start on the first lap's first chunk")
		}
		p.id = -1
	}
	if l.Allocs != n || l.Gets != n || l.Len() != 0 {
		t.Fatalf("second lap: Allocs/Gets/Len = %d/%d/%d, want %d/%d/0", l.Allocs, l.Gets, l.Len(), n, n)
	}
}

// TestRewindWithResetKeepsBuffers pins the other mode: objects that own a
// buffer come back recycled, with the buffer, and the counts still match a
// new list's.
func TestRewindWithResetKeepsBuffers(t *testing.T) {
	type tracker struct {
		key  int
		wait []int
		buf  [2]int
	}
	reset := func(p *tracker) { *p = tracker{wait: p.wait[:0]} }
	var l List[tracker]
	get := func(key int) *tracker {
		p, fresh := l.Get()
		if fresh {
			p.wait = p.buf[:0]
		}
		if len(p.wait) != 0 || p.key != 0 {
			t.Fatalf("tracker handed out holding %+v", *p)
		}
		p.key = key
		return p
	}
	n := KeepBytes / int(unsafe.Sizeof(tracker{})) / 2 // fits whatever the chunk boundaries
	for i := 1; i <= n; i++ {
		p := get(i)
		p.wait = append(p.wait, i, i, i) // outgrow the inline buffer
	}
	allocs, gets := l.Allocs, l.Gets
	for lap := 0; lap < 3; lap++ {
		l.Rewind(reset)
		if a := testing.AllocsPerRun(1, func() {
			for i := 1; i <= n; i++ {
				p := get(i)
				p.wait = append(p.wait, i, i, i)
			}
			l.Rewind(reset)
		}); a != 0 {
			t.Fatalf("lap %d over reset trackers made %.0f allocations", lap, a)
		}
		for i := 1; i <= n; i++ {
			get(i)
		}
		if l.Allocs != allocs || l.Gets != gets {
			t.Fatalf("lap %d: Allocs/Gets = %d/%d, first lap %d/%d", lap, l.Allocs, l.Gets, allocs, gets)
		}
	}
	// Growing past what was reset hands out fresh objects again.
	fresh := 0
	for i := 0; i < 4*n; i++ {
		if _, f := l.Get(); f {
			fresh++
		}
	}
	if fresh == 0 || fresh > 4*n {
		t.Fatalf("%d of %d objects carved past the reset chunks were fresh", fresh, 4*n)
	}
}

// TestSlabListAllocations checks what the chunks buy: a cold list allocates
// per chunk, not per object, and a warm one does not allocate at all.
func TestSlabListAllocations(t *testing.T) {
	const n = 1000
	perChunk := maxChunk / int(unsafe.Sizeof(obj{}))
	budget := float64(n/perChunk + 1 + 4) // full-size chunks, the tail, the ramp-up to maxChunk

	// AllocsPerRun calls the function once to warm up and then the stated
	// number of times, so each block below sees 2n Gets.
	var l List[obj]
	held := make([]*obj, 0, 2*n)
	cold := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			p, _ := l.Get()
			held = append(held, p)
		}
	})
	if cold > budget {
		t.Fatalf("%d cold Gets made %.0f allocations, want at most %.0f", n, cold, budget)
	}
	for _, p := range held {
		l.Put(p)
	}
	if warm := testing.AllocsPerRun(10, func() {
		held = held[:0]
		for i := 0; i < n; i++ {
			p, fresh := l.Get()
			if fresh {
				t.Fatal("warm list carved a new object")
			}
			held = append(held, p)
		}
		for _, p := range held {
			l.Put(p)
		}
	}); warm != 0 {
		t.Fatalf("steady-state Get/Put cycle made %.0f allocations, want 0", warm)
	}
}
