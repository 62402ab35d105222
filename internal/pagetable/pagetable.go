// Package pagetable materialises per-address-space multi-level radix page
// tables in the simulated physical memory.
//
// Each application (address space, identified by an ASID per §5.1) owns a
// Space backed by an x86-64-style radix table: four levels for 4KB pages or
// three levels for 2MB large pages (§7.3's page-size sensitivity study). The
// table nodes themselves occupy physical frames obtained from the same frame
// Allocator as data pages, so the page-table walker's dependent accesses
// (package ptw) touch realistic physical addresses and contend for the same
// caches and DRAM banks as data — the interference at the heart of §4.3.
package pagetable

import (
	"fmt"

	"masksim/internal/slab"
)

// PageSize4K and PageSize2M are the supported page sizes.
const (
	PageSize4K = 4 << 10
	PageSize2M = 2 << 20
)

const (
	// FrameSize is the physical frame granularity; page-table nodes always
	// occupy one 4KB frame regardless of data page size.
	FrameSize = 4 << 10
	// entriesPerNode is the radix fan-out (512 8-byte PTEs per 4KB node).
	entriesPerNode = 512
	indexBits      = 9
	pteSize        = 8
)

// Allocator hands out physical frame numbers. Frames are FrameSize bytes.
// A constraint predicate restricts which frames an allocation may use; the
// Static baseline uses it to confine each app's footprint to its DRAM
// channel partition.
type Allocator struct {
	next       uint64
	constraint func(frame uint64) bool
	// limit guards against a constraint that rejects everything.
	limit uint64
}

// NewAllocator returns an allocator starting at frame 1 (frame 0 is reserved
// as a null sentinel).
func NewAllocator() *Allocator {
	return &Allocator{next: 1, limit: 1 << 40}
}

// SetConstraint restricts subsequent allocations to frames satisfying f.
// Pass nil to remove the restriction.
func (a *Allocator) SetConstraint(f func(frame uint64) bool) {
	a.constraint = f
}

// Alloc returns the next acceptable physical frame number.
func (a *Allocator) Alloc() uint64 {
	for {
		f := a.next
		a.next++
		if a.next > a.limit {
			panic("pagetable: physical frame space exhausted")
		}
		if a.constraint == nil || a.constraint(f) {
			return f
		}
	}
}

// inlineSlots is how many mappings a leaf holds before it switches to a dense
// table. Sparse VA layouts (large page strides) create many leaves holding
// only a few mappings each — every leaf of every built-in profile holds
// exactly 8 — so a leaf keeps its first mappings in a small inline array and
// pays for a full 512-entry table only when a trace or a dense 2MB layout
// fills it further.
const inlineSlots = 8

// node is one page-table node. Interior nodes use kids; leaves use the
// inline (slot, frame) pairs or, once promoted, dense. Nodes are carved from
// the Space's slab and never freed.
type node struct {
	frame uint64
	kids  *[entriesPerNode]*node
	// dense maps leaf slot -> data frame; 0 means unmapped (frame 0 is the
	// Allocator's null sentinel and never backs a page).
	dense  *[entriesPerNode]uint64
	frames [inlineSlots]uint64
	slots  [inlineSlots]uint16
	n      uint8
}

// lookup returns the data frame mapped at slot idx of a leaf.
func (n *node) lookup(idx int) (uint64, bool) {
	if n.dense != nil {
		f := n.dense[idx]
		return f, f != 0
	}
	for i := 0; i < int(n.n); i++ {
		if int(n.slots[i]) == idx {
			return n.frames[i], true
		}
	}
	return 0, false
}

// set maps slot idx of a leaf, which must not be mapped yet, to frame.
func (n *node) set(idx int, frame uint64) {
	if n.dense == nil && n.n < inlineSlots {
		n.slots[n.n], n.frames[n.n] = uint16(idx), frame
		n.n++
		return
	}
	if n.dense == nil {
		n.dense = new([entriesPerNode]uint64)
		for i, slot := range n.slots {
			n.dense[slot] = n.frames[i]
		}
	}
	n.dense[idx] = frame
}

// Space is one application's address space: an ASID plus its radix table.
type Space struct {
	asid      uint8
	pageShift uint
	levels    int
	alloc     *Allocator
	root      *node
	nodes     slab.List[node]
}

// NewSpace creates an empty address space using pageSize (PageSize4K or
// PageSize2M) with tables allocated from alloc.
func NewSpace(asid uint8, pageSize int, alloc *Allocator) *Space {
	var shift uint
	var levels int
	switch pageSize {
	case PageSize4K:
		shift, levels = 12, 4
	case PageSize2M:
		shift, levels = 21, 3
	default:
		panic(fmt.Sprintf("pagetable: unsupported page size %d", pageSize))
	}
	s := &Space{asid: asid, pageShift: shift, levels: levels, alloc: alloc}
	s.root = s.newNode(true)
	return s
}

// newNode carves a node backed by a freshly allocated frame.
func (s *Space) newNode(interior bool) *node {
	n := s.nodes.Get()
	n.frame = s.alloc.Alloc()
	if interior {
		n.kids = new([entriesPerNode]*node)
	}
	return n
}

// ASID returns the address space identifier.
func (s *Space) ASID() uint8 { return s.asid }

// PageSize returns the data page size in bytes.
func (s *Space) PageSize() int { return 1 << s.pageShift }

// VPN returns the virtual page number of va.
func (s *Space) VPN(va uint64) uint64 { return va >> s.pageShift }

// indexAt extracts the radix index used at the given 1-based level.
// Level 1 is the root; level s.levels is the leaf.
func (s *Space) indexAt(vpn uint64, level int) int {
	shift := uint(indexBits * (s.levels - level))
	return int((vpn >> shift) & (entriesPerNode - 1))
}

// EnsureMapped maps the page containing va (allocating intermediate nodes
// and the data frame as needed) and returns the data frame number.
// The simulator pre-populates working sets at app load, matching the paper's
// scope (page faults are future work, §5.5).
func (s *Space) EnsureMapped(va uint64) uint64 {
	vpn := s.VPN(va)
	n := s.root
	for level := 1; level < s.levels; level++ {
		idx := s.indexAt(vpn, level)
		if n.kids[idx] == nil {
			// The level below the last interior one is the leaf.
			n.kids[idx] = s.newNode(level < s.levels-1)
		}
		n = n.kids[idx]
	}
	idx := s.indexAt(vpn, s.levels)
	if f, ok := n.lookup(idx); ok {
		return f
	}
	// Data pages may span multiple frames (2MB pages); the frame number
	// returned is the page's base frame and the page occupies
	// pageSize/FrameSize consecutive frame numbers.
	framesPerPage := uint64(s.PageSize() / FrameSize)
	base := s.alloc.Alloc()
	for i := uint64(1); i < framesPerPage; i++ {
		s.alloc.Alloc()
	}
	n.set(idx, base)
	return base
}

// Translate performs an instantaneous software walk: it returns the physical
// address for va and whether the page is mapped. The TLB hierarchy models
// only the timing of translation; a core reads the frame here when a
// translation lands.
func (s *Space) Translate(va uint64) (uint64, bool) {
	vpn := s.VPN(va)
	n := s.root
	for level := 1; level < s.levels; level++ {
		idx := s.indexAt(vpn, level)
		if n.kids[idx] == nil {
			return 0, false
		}
		n = n.kids[idx]
	}
	frame, ok := n.lookup(s.indexAt(vpn, s.levels))
	if !ok {
		return 0, false
	}
	offsetMask := uint64(s.PageSize() - 1)
	return frame*FrameSize + (va & offsetMask), true
}

// TranslateVPN is Translate for a whole page: it returns the data frame
// number for vpn.
func (s *Space) TranslateVPN(vpn uint64) (uint64, bool) {
	pa, ok := s.Translate(vpn << s.pageShift)
	if !ok {
		return 0, false
	}
	return pa / FrameSize, true
}

// WalkAddrsInto fills dst with the physical byte addresses of the page-table
// entries a hardware walker must read to translate vpn, ordered from root
// (level 1) to leaf, and returns the filled prefix of dst. It does not
// allocate when dst has capacity for every level. The page must be mapped.
func (s *Space) WalkAddrsInto(vpn uint64, dst []uint64) []uint64 {
	dst = dst[:0]
	n := s.root
	for level := 1; level <= s.levels; level++ {
		idx := s.indexAt(vpn, level)
		dst = append(dst, n.frame*FrameSize+uint64(idx)*pteSize)
		if level < s.levels {
			if n.kids[idx] == nil {
				panic(fmt.Sprintf("pagetable: WalkAddrsInto on unmapped vpn %#x (level %d)", vpn, level))
			}
			n = n.kids[idx]
		}
	}
	return dst
}
