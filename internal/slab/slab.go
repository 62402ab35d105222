// Package slab provides the one free list behind every recycled object in the
// simulator: pooled requests, page-table nodes, DRAM queue wrappers.
//
// A List is deterministic by construction — plain slices, LIFO reuse, no
// sync.Pool, nothing the garbage collector or another goroutine can perturb —
// and it carves its objects out of []T chunks instead of allocating each one
// on its own, so a cold simulator pays a handful of allocations per list
// rather than one per object (docs/MODEL.md §1).
package slab

import "unsafe"

// Chunk sizing, in bytes: the next chunk is as large as everything the list
// has carved so far, clamped to [minChunk, maxChunk]. Lists that stay small
// (a small page table's nodes) waste at most minChunk; lists that grow large
// (a simulator's thousands of data requests) settle at maxChunk per
// allocation, which bounds the unused tail. Both bounds and every doubling
// between them are malloc size classes, so a chunk loses less than one object
// to rounding — a fixed chunk of 64 objects of 112 bytes would occupy an 8 KB
// class and waste 12 % of it.
const (
	minChunk = 1 << 10
	maxChunk = 8 << 10
)

// List is a free list of *T. The zero List is ready to use. It is not safe
// for concurrent use: every simulator owns its lists.
type List[T any] struct {
	free []*T
	// chunks holds every chunk the list ever allocated, oldest first, and
	// used how many of them this lap carves from: a rewound list (Rewind)
	// walks the chunks it kept before it allocates another. chunk is the
	// uncarved tail of chunks[used-1]; carved counts the objects of
	// chunks[:used] and sizes the next one.
	chunks [][]T
	used   int
	chunk  []T
	carved int

	// Allocs counts the objects created because the list was empty (objects,
	// not chunks); Gets counts all handouts. Gets - Allocs is the number of
	// recycles.
	Allocs, Gets uint64
}

// Get hands out an object: a recycled one as the caller Put it, or one never
// handed out since the list was new or rewound, which is zero.
func (l *List[T]) Get() (p *T) {
	l.Gets++
	if n := len(l.free); n > 0 {
		p = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return p
	}
	l.Allocs++
	if len(l.chunk) == 0 {
		if l.used == len(l.chunks) {
			size := max(int(unsafe.Sizeof(*p)), 1)
			n := max(1, min(max(l.carved*size, minChunk), maxChunk)/size)
			if l.chunks == nil {
				// Most lists stay under eight chunks: one registry
				// allocation instead of append's four.
				l.chunks = make([][]T, 0, 8)
			}
			l.chunks = append(l.chunks, make([]T, n))
		}
		l.chunk = l.chunks[l.used]
		l.used++
		l.carved += len(l.chunk)
	}
	p = &l.chunk[0]
	l.chunk = l.chunk[1:]
	return p
}

// Put returns an object obtained from Get to the list.
func (l *List[T]) Put(p *T) { l.free = append(l.free, p) }

// Len reports how many objects are on the list.
func (l *List[T]) Len() int { return len(l.free) }

// Rewind returns the list to its initial state over the chunks it already
// has: it then hands out the same zero objects in the same order, with the
// same counts, as a new List would — without allocating until it outgrows
// what it kept, which is its oldest chunks and its free stack, up to
// KeepBytes of each. Every object handed out before is dead; the caller must
// hold no pointer to one (a recycled simulator, docs/MODEL.md §11).
func (l *List[T]) Rewind() {
	var zero T
	keep, bytes := 0, 0
	for keep < len(l.chunks) && bytes+len(l.chunks[keep])*int(unsafe.Sizeof(zero)) <= KeepBytes {
		bytes += len(l.chunks[keep]) * int(unsafe.Sizeof(zero))
		keep++
	}
	clear(l.chunks[keep:])
	l.chunks = l.chunks[:keep]
	// Only the chunks carved from may hold something.
	for _, c := range l.chunks[:min(keep, l.used)] {
		clear(c)
	}
	*l = List[T]{free: Grown(l.free), chunks: l.chunks}
}
