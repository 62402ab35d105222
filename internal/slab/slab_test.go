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

func (l *refList) Refill(n int) {
	for len(l.free) < n {
		l.free = append(l.free, new(obj))
	}
}

// drive applies one op sequence to both lists and checks they agree on every
// count (which of several interchangeable free objects comes out next is not
// part of the contract). Each op byte selects Get, Put (of a live object
// chosen by the next byte) or Refill.
func drive(t *testing.T, ops []byte) {
	t.Helper()
	var l List[obj]
	var ref refList
	var live, refLive []*obj
	seen := make(map[*obj]bool)
	nextID := 0
	for i := 0; i < len(ops); i++ {
		switch op := ops[i] % 8; {
		case op < 4 || len(live) == 0 && op < 7:
			p, fresh := l.Get()
			rp := ref.Get()
			if fresh != !seen[p] {
				t.Fatalf("op %d: fresh=%v for an object handed out before=%v", i, fresh, seen[p])
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
		case op < 7:
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
		default:
			i++
			n := -3
			if i < len(ops) {
				n += int(ops[i])
			}
			l.Refill(n)
			ref.Refill(n)
		}
		if l.Allocs != ref.Allocs || l.Gets != ref.Gets || l.Len() != ref.Len() {
			t.Fatalf("op %d: Allocs/Gets/Len = %d/%d/%d, reference %d/%d/%d",
				i, l.Allocs, l.Gets, l.Len(), ref.Allocs, ref.Gets, ref.Len())
		}
	}
}

// TestSlabListMatchesReference drives List and the one-new-per-object
// recycler it replaced with seeded Get/Put/Refill sequences.
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
	f.Fuzz(func(t *testing.T, ops []byte) { drive(t, ops) })
}

// TestSlabListAllocations checks what the chunks buy: a cold list allocates
// per chunk, not per object; a warm one does not allocate at all; and Refill
// itself allocates nothing, however large the promise.
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

	var r List[obj]
	if a := testing.AllocsPerRun(1, func() { r.Refill(1 << 40) }); a != 0 || r.Len() != 1<<40 {
		t.Fatalf("Refill(1<<40) made %.0f allocations and left Len %d", a, r.Len())
	}
	if refilled := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			if _, fresh := r.Get(); !fresh {
				t.Fatal("a refilled object was not reported fresh")
			}
		}
	}); refilled > budget || r.Allocs != 0 || r.Len() != 1<<40-2*n {
		t.Fatalf("%d Gets after Refill: %.0f allocations (budget %.0f), Allocs %d, Len %d", n, refilled, budget, r.Allocs, r.Len())
	}
}
