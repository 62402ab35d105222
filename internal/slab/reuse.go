package slab

import "unsafe"

// The helpers below are how a constructor takes a buffer from a donor — the
// instance it rebuilds in place (Renew, docs/MODEL.md §11). A buffer crosses
// from the donor only through Slice, Grown, Map or List.Rewind, each of which
// hands it over empty and cleared to its full capacity, so nothing the donor
// computed survives in it. Donors and Donor carry no state across either:
// what they return are the donors of the next Renew down.

// Lift opens a Renew: it returns the instance to build in place — p, or a new
// T for a nil donor — already zeroed, and what it held as the donor value d.
// The constructor body then runs as for a new instance and may reach into d
// only for buffers, through the helpers below; no scalar survives because
// nothing copies one.
func Lift[T any](p *T) (*T, T) {
	var d, zero T
	if p == nil {
		return new(T), d
	}
	d, *p = *p, zero
	return p, d
}

// Slice returns a zeroed slice of length n: over old's array when its
// capacity fits, over a new one otherwise.
func Slice[T any](old []T, n int) []T {
	if cap(old) < n {
		return make([]T, n)
	}
	old = old[:cap(old)]
	clear(old)
	return old[:n]
}

// KeepBytes bounds what a donor hands on of a buffer that grew on demand — a
// retry list, a free stack, a list's chunks: past it the buffer is let go and
// the next instance grows its own. A rebuilt simulator holds what it kept
// from its first cycle to its last, and the collector's pacer counts that
// twice — once as live heap, once as the headroom it grants on top — so
// keeping every buffer at its high-water mark bought a third fewer
// allocations for a third more resident memory (docs/MODEL.md §11). Buffers
// whose size the geometry fixes are not subject to it: the next instance
// needs them at that size anyway.
const KeepBytes = 8 << 10

// Grown returns old emptied when it is small enough to keep (KeepBytes), nil
// otherwise: what Renew keeps of a buffer that append grew.
func Grown[T any](old []T) []T {
	var zero T
	if cap(old)*int(unsafe.Sizeof(zero)) > KeepBytes {
		return nil
	}
	return Slice(old, 0)
}

// Map returns old emptied, or a new map when old is nil.
func Map[K comparable, V any](old map[K]V) map[K]V {
	if old == nil {
		return make(map[K]V)
	}
	clear(old)
	return old
}

// Donors returns old resized to n elements that keep what old's array held,
// zero values past it: a slice of sub-donors (per-bank rings, per-core
// pools), each of which the caller rebuilds through its own Renew.
func Donors[T any](old []T, n int) []T {
	if cap(old) >= n {
		return old[:n]
	}
	grown := make([]T, n)
	copy(grown, old[:cap(old)])
	return grown
}

// Donor returns the i-th element of a donor's list of component pointers,
// looking past the list's length into its capacity (a smaller geometry leaves
// the components it did not need there), or nil.
func Donor[T any](old []*T, i int) *T {
	if i >= cap(old) {
		return nil
	}
	return old[:cap(old)][i]
}
