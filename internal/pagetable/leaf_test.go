package pagetable

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// refSpace is the radix table as it was before leaves went inline: every node
// its own allocation, every leaf a map. Kept as the behavioural reference for
// Space — frames must come out of the Allocator in the same order, and every
// lookup must agree.
type refSpace struct {
	pageShift uint
	levels    int
	alloc     *Allocator
	root      *refNode
}

type refNode struct {
	frame    uint64
	children map[int]*refNode
	frames   map[int]uint64
}

func newRefSpace(pageSize int, alloc *Allocator) *refSpace {
	s := &refSpace{pageShift: 12, levels: 4, alloc: alloc}
	if pageSize == PageSize2M {
		s.pageShift, s.levels = 21, 3
	}
	s.root = &refNode{frame: alloc.Alloc(), children: map[int]*refNode{}}
	return s
}

func (s *refSpace) indexAt(vpn uint64, level int) int {
	return int((vpn >> uint(indexBits*(s.levels-level))) & (entriesPerNode - 1))
}

func (s *refSpace) ensureMapped(va uint64) uint64 {
	vpn := va >> s.pageShift
	n := s.root
	for level := 1; level < s.levels; level++ {
		idx := s.indexAt(vpn, level)
		if n.children[idx] == nil {
			n.children[idx] = &refNode{frame: s.alloc.Alloc(), children: map[int]*refNode{}, frames: map[int]uint64{}}
		}
		n = n.children[idx]
	}
	idx := s.indexAt(vpn, s.levels)
	if f, ok := n.frames[idx]; ok {
		return f
	}
	base := s.alloc.Alloc()
	for i := 1; i < (1<<s.pageShift)/FrameSize; i++ {
		s.alloc.Alloc()
	}
	n.frames[idx] = base
	return base
}

// walk returns the PTE addresses down to the deepest existing node and, when
// the page is mapped, its frame.
func (s *refSpace) walk(vpn uint64) (addrs []uint64, frame uint64, ok bool) {
	n := s.root
	for level := 1; level <= s.levels; level++ {
		idx := s.indexAt(vpn, level)
		addrs = append(addrs, n.frame*FrameSize+uint64(idx)*pteSize)
		if level == s.levels {
			frame, ok = n.frames[idx]
			return addrs, frame, ok
		}
		if n = n.children[idx]; n == nil {
			return addrs, 0, false
		}
	}
	panic("unreachable")
}

// compareSpaces maps vas in order into a Space and a refSpace drawing from
// separate allocators, then checks every mapped page, and every probe VA,
// resolves identically through Translate, TranslateVPN and WalkAddrsInto.
func compareSpaces(t *testing.T, pageSize int, vas, probes []uint64) {
	t.Helper()
	alloc, refAlloc := NewAllocator(), NewAllocator()
	s, ref := NewSpace(1, pageSize, alloc), newRefSpace(pageSize, refAlloc)
	for i, va := range vas {
		if got, want := s.EnsureMapped(va), ref.ensureMapped(va); got != want {
			t.Fatalf("EnsureMapped #%d (%#x) = frame %d, reference %d", i, va, got, want)
		}
		if (alloc.next - 1) != (refAlloc.next - 1) {
			t.Fatalf("after EnsureMapped #%d (%#x): %d frames allocated, reference %d", i, va, (alloc.next - 1), (refAlloc.next - 1))
		}
	}
	var buf [4]uint64
	for _, va := range append(slices.Clone(vas), probes...) {
		vpn := va >> s.pageShift
		addrs, frame, ok := ref.walk(vpn)
		pa, gotOK := s.Translate(va)
		if gotOK != ok || ok && pa != frame*FrameSize+va&uint64(pageSize-1) {
			t.Fatalf("Translate(%#x) = %#x, %v; reference frame %d, %v", va, pa, gotOK, frame, ok)
		}
		if f, gotOK := s.TranslateVPN(vpn); gotOK != ok || f != frame {
			t.Fatalf("TranslateVPN(%#x) = %d, %v; reference %d, %v", vpn, f, gotOK, frame, ok)
		}
		if len(addrs) == s.levels { // the walk exists down to the leaf
			if got := s.WalkAddrsInto(vpn, buf[:0]); !slices.Equal(got, addrs) {
				t.Fatalf("WalkAddrsInto(%#x) = %#x, reference %#x", vpn, got, addrs)
			}
		}
	}
}

// TestLeafMatchesMapReference fills leaves past the inline capacity — in
// ascending, descending and scattered slot order, for both page sizes — and
// checks the promoted table against the map-backed reference.
func TestLeafMatchesMapReference(t *testing.T) {
	for _, pageSize := range []int{PageSize4K, PageSize2M} {
		ps := uint64(pageSize)
		leafSpan := ps * entriesPerNode
		var vas []uint64
		// Leaf 0: exactly inlineSlots mappings, like every built-in profile
		// (stride 64). Leaf 1: one more, the promotion edge. Leaf 2: full,
		// descending. Leaf 3: scattered, with repeats.
		for i := uint64(0); i < inlineSlots; i++ {
			vas = append(vas, i*64*ps)
		}
		for i := uint64(0); i <= inlineSlots; i++ {
			vas = append(vas, leafSpan+i*7*ps)
		}
		for i := uint64(entriesPerNode); i > 0; i-- {
			vas = append(vas, 2*leafSpan+(i-1)*ps)
		}
		rnd := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			vas = append(vas, 3*leafSpan+uint64(rnd.Intn(entriesPerNode))*ps+uint64(rnd.Intn(pageSize)))
		}
		// Probe every slot of the four leaves (mapped or not) and an
		// untouched region.
		var probes []uint64
		for i := uint64(0); i < 4*entriesPerNode; i++ {
			probes = append(probes, i*ps+5)
		}
		probes = append(probes, 1<<40, 1<<40+ps)
		compareSpaces(t, pageSize, vas, probes)

		s := NewSpace(1, pageSize, NewAllocator())
		for _, va := range vas[:2*inlineSlots+1] {
			s.EnsureMapped(va)
		}
		leaf := func(va uint64) *node {
			n := s.root
			for level := 1; level < s.levels; level++ {
				n = n.kids[s.indexAt(va>>s.pageShift, level)]
			}
			return n
		}
		if l := leaf(0); l.dense != nil || l.n != inlineSlots {
			t.Fatalf("page size %d: leaf with %d mappings promoted (n=%d)", pageSize, inlineSlots, l.n)
		}
		if l := leaf(leafSpan); l.dense == nil {
			t.Fatalf("page size %d: leaf with %d mappings still inline", pageSize, inlineSlots+1)
		}
	}
}

func FuzzSpaceMatchesReference(f *testing.F) {
	seed := func(large bool, vpns ...uint32) {
		b := []byte{0}
		if large {
			b[0] = 1
		}
		for _, v := range vpns {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		f.Add(b)
	}
	seed(false, 0, 64, 128, 192, 256, 320, 384, 448, 1, 512, 513)
	seed(true, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1<<18, 1<<18+1)
	seed(false, 1<<27, 1<<18, 1<<9, 1, 0, 1<<27)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pageSize := PageSize4K
		if data[0]&1 == 1 {
			pageSize = PageSize2M
		}
		// 28-bit VPNs: deep enough to branch at every level, dense enough
		// that a fuzzer finds leaves to overfill.
		var vas, probes []uint64
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			vpn := uint64(binary.LittleEndian.Uint32(data) & (1<<28 - 1))
			vas = append(vas, vpn*uint64(pageSize))
			probes = append(probes, (vpn^1)*uint64(pageSize), (vpn+entriesPerNode)*uint64(pageSize))
		}
		if len(vas) > 2000 {
			vas, probes = vas[:2000], probes[:4000]
		}
		compareSpaces(t, pageSize, vas, probes)
	})
}
