// Package slab provides the one free list behind every recycled object in the
// simulator: pooled requests, MSHR and miss trackers, walks, translation
// contexts, DRAM queue wrappers.
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
// (a core's dozen translation requests) waste at most minChunk; lists that
// grow large (a core's hundreds of data requests) settle at maxChunk per
// allocation, which bounds the unused tail. Both bounds and every doubling
// between them are malloc size classes, so a chunk loses less than one object
// to rounding — 64 112-byte Requests would occupy an 8 KB class and waste
// 12 % of it.
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
	// chunks[:reset] hold objects a Rewind reset instead of zeroing, and
	// fresh says the chunk being carved is not one of them.
	reset int
	fresh bool

	// Allocs counts the objects created because the list was empty (objects,
	// not chunks); Gets counts all handouts. Gets - Allocs is the number of
	// recycles.
	Allocs, Gets uint64
}

// Get hands out an object. fresh reports that it has never been handed out
// before, or not since a Rewind zeroed it: it is zero, and the caller sets up
// whatever it keeps across reuses (a slice over an inline buffer) exactly
// then. A recycled object comes back as the caller Put it, or as Rewind's
// reset left it.
func (l *List[T]) Get() (p *T, fresh bool) {
	l.Gets++
	if n := len(l.free); n > 0 {
		p = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return p, false
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
		l.chunk, l.fresh = l.chunks[l.used], l.used >= l.reset
		l.used++
		l.carved += len(l.chunk)
	}
	p = &l.chunk[0]
	l.chunk = l.chunk[1:]
	return p, l.fresh
}

// Put returns an object obtained from Get to the list.
func (l *List[T]) Put(p *T) { l.free = append(l.free, p) }

// Len reports how many objects are on the list.
func (l *List[T]) Len() int { return len(l.free) }

// Rewind returns the list to its initial state over the chunks it already
// has: it then hands out the same objects in the same order, with the same
// counts, as a new List would — without allocating until it outgrows what it
// kept, which is its oldest chunks and its free stack, up to KeepBytes of
// each. Every object handed out before is dead; the caller must hold no
// pointer to one (a recycled simulator, docs/MODEL.md §11).
//
// With a nil reset the kept chunks are zeroed and their objects come out
// fresh. Otherwise reset is called on every object of every kept chunk in
// use, handed out or not, and must leave it as the caller would Put it —
// empty, but still holding the buffer it grew; Get then reports those objects
// recycled, so the caller does not set the buffer up again. A list is rewound
// with one reset throughout, or with none.
func (l *List[T]) Rewind(reset func(*T)) {
	var zero T
	keep, bytes := 0, 0
	for keep < len(l.chunks) && bytes+len(l.chunks[keep])*int(unsafe.Sizeof(zero)) <= KeepBytes {
		bytes += len(l.chunks[keep]) * int(unsafe.Sizeof(zero))
		keep++
	}
	clear(l.chunks[keep:])
	l.chunks = l.chunks[:keep]
	// chunks[:dirty] may hold something; those past were never carved since
	// they were zero, or since the last Rewind reset them.
	dirty, wasReset := min(keep, l.used), min(keep, l.reset)
	if reset == nil {
		for _, c := range l.chunks[:max(dirty, wasReset)] {
			clear(c)
		}
		wasReset = 0
	} else {
		for _, c := range l.chunks[:dirty] {
			for i := range c {
				reset(&c[i])
			}
		}
		wasReset = max(dirty, wasReset)
	}
	*l = List[T]{free: Grown(l.free), chunks: l.chunks, reset: wasReset}
}
