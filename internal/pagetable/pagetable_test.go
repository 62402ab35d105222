package pagetable

import (
	"testing"
	"testing/quick"
)

func TestTranslateUnmapped(t *testing.T) {
	s := NewSpace(1, PageSize4K, NewAllocator())
	if _, ok := s.Translate(0x12345678); ok {
		t.Fatal("unmapped address translated")
	}
}

func TestEnsureMappedRoundTrip(t *testing.T) {
	s := NewSpace(1, PageSize4K, NewAllocator())
	va := uint64(0x1234_5678_9000)
	frame := s.EnsureMapped(va)
	pa, ok := s.Translate(va | 0x123) // arbitrary page offset
	if !ok {
		t.Fatal("mapped address did not translate")
	}
	if pa != frame*FrameSize+0x123 {
		t.Fatalf("pa=%#x, want frame %#x + offset 0x123", pa, frame)
	}
}

func TestEnsureMappedIdempotent(t *testing.T) {
	s := NewSpace(1, PageSize4K, NewAllocator())
	va := uint64(0xABC000)
	f1 := s.EnsureMapped(va)
	f2 := s.EnsureMapped(va + 64) // same page
	if f1 != f2 {
		t.Fatalf("remapping same page gave different frames %d vs %d", f1, f2)
	}
	if mappedPages(s) != 1 {
		t.Fatalf("MappedPages=%d, want 1", mappedPages(s))
	}
}

// Property: arbitrary VA sets translate back to distinct frames, and
// distinct pages never share a frame.
func TestTranslationCorrectnessProperty(t *testing.T) {
	f := func(vas []uint32) bool {
		alloc := NewAllocator()
		s := NewSpace(1, PageSize4K, alloc)
		frames := map[uint64]uint64{} // vpn -> frame
		for _, v := range vas {
			va := uint64(v) << 8 // spread over a few GB
			frame := s.EnsureMapped(va)
			vpn := s.VPN(va)
			if prev, ok := frames[vpn]; ok && prev != frame {
				return false
			}
			frames[vpn] = frame
		}
		// All mappings still resolve, and frames are unique per page.
		seen := map[uint64]uint64{}
		for vpn, frame := range frames {
			got, ok := s.TranslateVPN(vpn)
			if !ok || got != frame {
				return false
			}
			if other, dup := seen[frame]; dup && other != vpn {
				return false
			}
			seen[frame] = vpn
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkAddrsShape(t *testing.T) {
	s := NewSpace(1, PageSize4K, NewAllocator())
	va := uint64(0x7654_3210_0000)
	s.EnsureMapped(va)
	addrs := s.WalkAddrsInto(s.VPN(va), nil)
	if len(addrs) != 4 {
		t.Fatalf("4KB walk has %d levels, want 4", len(addrs))
	}
	// The root PTE address must live in the root frame.
	if addrs[0]/FrameSize == 0 {
		t.Fatal("root walk address in null frame")
	}
	// PTE addresses must be 8-byte aligned within distinct frames.
	for i, a := range addrs {
		if a%8 != 0 {
			t.Fatalf("level %d PTE address %#x not 8-byte aligned", i+1, a)
		}
	}
}

func TestWalkAddrsSharedPrefix(t *testing.T) {
	s := NewSpace(1, PageSize4K, NewAllocator())
	va1 := uint64(0x4000_0000)
	va2 := va1 + PageSize4K // adjacent page
	s.EnsureMapped(va1)
	s.EnsureMapped(va2)
	a1 := s.WalkAddrsInto(s.VPN(va1), nil)
	a2 := s.WalkAddrsInto(s.VPN(va2), nil)
	// Adjacent pages share levels 1..3 node frames (same upper indices).
	for lvl := 0; lvl < 3; lvl++ {
		if a1[lvl]/FrameSize != a2[lvl]/FrameSize {
			t.Fatalf("level %d node frames differ for adjacent pages", lvl+1)
		}
	}
	if a1[3] == a2[3] {
		t.Fatal("adjacent pages share identical leaf PTE address")
	}
}

func TestWalkAddrsIntoMatches(t *testing.T) {
	s := NewSpace(1, PageSize4K, NewAllocator())
	va := uint64(0x9999_0000)
	s.EnsureMapped(va)
	vpn := s.VPN(va)
	a := s.WalkAddrsInto(vpn, nil)
	var buf [4]uint64
	b := s.WalkAddrsInto(vpn, buf[:0])
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("WalkAddrsInto[%d]=%#x into a buffer, %#x into nil", i, b[i], a[i])
		}
	}
}

func Test2MBPages(t *testing.T) {
	s := NewSpace(2, PageSize2M, NewAllocator())
	if s.levels != 3 {
		t.Fatalf("2MB pages use %d levels, want 3", s.levels)
	}
	va := uint64(0x8000_0000)
	frame := s.EnsureMapped(va)
	// Offsets across the whole 2MB page resolve within the page's frames.
	pa, ok := s.Translate(va + 1<<20)
	if !ok {
		t.Fatal("2MB page did not translate")
	}
	if pa != frame*FrameSize+1<<20 {
		t.Fatalf("2MB offset translation wrong: %#x", pa)
	}
	addrs := s.WalkAddrsInto(s.VPN(va), nil)
	if len(addrs) != 3 {
		t.Fatalf("2MB walk has %d levels, want 3", len(addrs))
	}
}

func TestAllocatorConstraint(t *testing.T) {
	a := NewAllocator()
	a.SetConstraint(func(frame uint64) bool { return frame%4 == 2 })
	for i := 0; i < 100; i++ {
		if f := a.Alloc(); f%4 != 2 {
			t.Fatalf("constrained allocator returned frame %d", f)
		}
	}
	a.SetConstraint(nil)
	_ = a.Alloc() // must not loop forever
}

func TestAllocatorNeverReturnsZero(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < 1000; i++ {
		if a.Alloc() == 0 {
			t.Fatal("allocator returned the null frame")
		}
	}
}

func TestSeparateSpacesAreIsolated(t *testing.T) {
	alloc := NewAllocator()
	s1 := NewSpace(1, PageSize4K, alloc)
	s2 := NewSpace(2, PageSize4K, alloc)
	va := uint64(0x5000_0000)
	f1 := s1.EnsureMapped(va)
	f2 := s2.EnsureMapped(va)
	if f1 == f2 {
		t.Fatal("two address spaces mapped the same VA to one frame")
	}
	if _, ok := s1.Translate(va); !ok {
		t.Fatal("s1 lost its mapping")
	}
}

// mappedPages counts the data pages s maps, by walking its radix tree.
func mappedPages(s *Space) uint64 {
	var count func(n *node, level int) uint64
	count = func(n *node, level int) uint64 {
		if level == s.levels {
			if n.dense == nil {
				return uint64(n.n)
			}
			var c uint64
			for _, f := range n.dense {
				if f != 0 {
					c++
				}
			}
			return c
		}
		var c uint64
		for _, k := range n.kids {
			if k != nil {
				c += count(k, level+1)
			}
		}
		return c
	}
	return count(s.root, 1)
}

func TestMappedPagesCount(t *testing.T) {
	s := NewSpace(1, PageSize4K, NewAllocator())
	for i := uint64(0); i < 100; i++ {
		s.EnsureMapped(i * PageSize4K)
	}
	if mappedPages(s) != 100 {
		t.Fatalf("MappedPages=%d, want 100", mappedPages(s))
	}
}
