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
	// chunk is the uncarved tail of the newest chunk; carved counts the
	// objects of all chunks and sizes the next one.
	chunk  []T
	carved int
	// owed counts objects Refill put on the list that no Get has carved yet.
	owed int

	// Allocs counts the objects created because the list was empty (objects,
	// not chunks); Gets counts all handouts. Gets - Allocs is the number of
	// recycles.
	Allocs, Gets uint64
}

// Get hands out an object. fresh reports that it has never been handed out
// before: it is zero, and the caller sets up whatever it keeps across reuses
// (a slice over an inline buffer) exactly then. A recycled object comes back
// as the caller Put it.
func (l *List[T]) Get() (p *T, fresh bool) {
	l.Gets++
	if n := len(l.free); n > 0 {
		p = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return p, false
	}
	if l.owed > 0 {
		l.owed--
	} else {
		l.Allocs++
	}
	if len(l.chunk) == 0 {
		size := max(int(unsafe.Sizeof(*p)), 1)
		n := max(1, min(max(l.carved*size, minChunk), maxChunk)/size)
		l.chunk = make([]T, n)
		l.carved += n
	}
	p = &l.chunk[0]
	l.chunk = l.chunk[1:]
	return p, true
}

// Put returns an object obtained from Get to the list.
func (l *List[T]) Put(p *T) { l.free = append(l.free, p) }

// Len reports how many objects are on the list.
func (l *List[T]) Len() int { return len(l.free) + l.owed }

// Refill tops the list up to n objects (checkpoint restore: free objects are
// interchangeable, so only their number is recorded). The missing objects are
// carved by the Gets that hand them out, which report them fresh but do not
// count them in Allocs — the checkpointed run already did. A list that
// already holds n or more is left alone.
func (l *List[T]) Refill(n int) {
	if d := n - l.Len(); d > 0 {
		l.owed += d
	}
}
