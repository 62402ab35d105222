package tlb

import (
	"cmp"
	"fmt"
	"slices"

	"masksim/internal/memreq"
	"masksim/internal/slab"
)

// assocLRU is a fixed-capacity, fully-associative, LRU-replaced translation
// store keyed by (asid, vpn): the structure behind both the per-core L1 TLB
// and MASK's TLB bypass cache. Every slot lives in one construction-time
// slice and is threaded on two intrusive index-linked lists — a circular
// recency list through a sentinel (MRU first; unused slots, stamp 0, sit at
// the LRU end) and the chain of its hash bucket — so probe, fill, evict and
// remove are O(1) and allocation-free.
//
// Each touch stamps the slot with a strictly increasing counter, so the list
// tail is always an unused slot or the valid entry with the smallest stamp.
// Checkpoints carry the stamps and restore rebuilds the list by sorting on
// them.
type assocLRU struct {
	slots   []assocSlot // slots[end] is the recency list's sentinel
	buckets []int32     // power-of-two table of chain heads; -1 = empty
	end     int32
	n       int
	stamp   int64
}

type assocSlot struct {
	Entry
	prev, next int32 // recency list, towards MRU / towards LRU
	chain      int32 // next slot in the same hash bucket
}

// Entry is one cached translation of an L1 TLB or the bypass cache, as the
// table keeps it and a checkpoint writes it.
type Entry struct {
	Key   memreq.PageKey
	Stamp int64
}

func newAssocLRU(capacity int) *assocLRU { return renewAssocLRU(nil, capacity) }

// renewAssocLRU is newAssocLRU built in place over a donor, whose slot and
// bucket arrays are reused when they fit (docs/MODEL.md §11).
func renewAssocLRU(a *assocLRU, capacity int) *assocLRU {
	nb := 1
	for nb < 2*capacity {
		nb <<= 1
	}
	a, d := slab.Lift(a)
	*a = assocLRU{slots: slab.Slice(d.slots, capacity+1), buckets: slab.Slice(d.buckets, nb), end: int32(capacity)}
	a.reset()
	return a
}

// reset empties the table in place; the stamp counter keeps running.
func (a *assocLRU) reset() {
	for i := range a.buckets {
		a.buckets[i] = -1
	}
	for i := range a.slots {
		a.slots[i].Stamp = 0
		a.slots[i].prev, a.slots[i].next = int32(i)-1, int32(i)+1
	}
	a.slots[0].prev, a.slots[a.end].next = a.end, 0
	a.n = 0
}

func (a *assocLRU) bucket(k memreq.PageKey) *int32 {
	return &a.buckets[k.Hash()>>32&uint64(len(a.buckets)-1)]
}

// find returns k's slot index, or -1.
func (a *assocLRU) find(k memreq.PageKey) int32 {
	i := *a.bucket(k)
	for i >= 0 && a.slots[i].Key != k {
		i = a.slots[i].chain
	}
	return i
}

func (a *assocLRU) contains(k memreq.PageKey) bool { return a.find(k) >= 0 }

// move relinks slot i on the recency list right after slot p (p != i).
func (a *assocLRU) move(i, p int32) {
	s := &a.slots[i]
	a.slots[s.prev].next, a.slots[s.next].prev = s.next, s.prev
	s.prev, s.next = p, a.slots[p].next
	a.slots[s.next].prev, a.slots[p].next = i, i
}

// touch makes slot i the MRU entry and gives it the next stamp.
func (a *assocLRU) touch(i int32) {
	a.move(i, a.end)
	a.stamp++
	a.slots[i].Stamp = a.stamp
}

// unhash takes slot i out of its bucket chain.
func (a *assocLRU) unhash(i int32) {
	p := a.bucket(a.slots[i].Key)
	for *p != i {
		p = &a.slots[*p].chain
	}
	*p = a.slots[i].chain
}

// probe reports whether k is cached and, if so, makes it the MRU entry.
func (a *assocLRU) probe(k memreq.PageKey) bool {
	i := a.find(k)
	if i < 0 {
		return false
	}
	a.touch(i)
	return true
}

// fill installs k, or refreshes it, as the MRU entry, evicting the LRU entry
// when the table is full.
func (a *assocLRU) fill(k memreq.PageKey) {
	i := a.find(k)
	if i < 0 {
		i = a.slots[a.end].prev // an unused slot while any remain, else the LRU entry
		if a.slots[i].Stamp != 0 {
			a.unhash(i)
		} else {
			a.n++
		}
		b := a.bucket(k)
		a.slots[i].Key, a.slots[i].chain = k, *b
		*b = i
	}
	a.touch(i)
}

// remove drops k's entry, if cached.
func (a *assocLRU) remove(k memreq.PageKey) {
	i := a.find(k)
	if i < 0 {
		return
	}
	a.unhash(i)
	a.slots[i].Stamp = 0
	if tail := a.slots[a.end].prev; tail != i {
		a.move(i, tail)
	}
	a.n--
}

// entries returns the cached translations from LRU to MRU (ascending stamp):
// the table's checkpoint image.
func (a *assocLRU) entries() []Entry {
	out := make([]Entry, a.n)
	i := a.end
	for j := a.n - 1; j >= 0; j-- {
		i = a.slots[i].next
		out[j] = a.slots[i].Entry
	}
	return out
}

// restore replaces the table's contents with a checkpoint image, in any
// order; what names the structure in errors. The image is hostile input:
// more entries than slots, a repeated key, or a stamp that is not a distinct
// value in [1, stamp] is an error, never a panic or a truncation.
func (a *assocLRU) restore(what string, stamp int64, es []Entry) error {
	if len(es) > int(a.end) {
		return fmt.Errorf("tlb: checkpoint has %d %s entries, capacity is %d", len(es), what, a.end)
	}
	slices.SortFunc(es, func(x, y Entry) int { return cmp.Compare(x.Stamp, y.Stamp) })
	a.reset()
	for i, e := range es {
		if e.Stamp < 1 || e.Stamp > stamp || (i > 0 && e.Stamp == es[i-1].Stamp) {
			return fmt.Errorf("tlb: checkpoint %s entry (asid %d, vpn %#x) has stamp %d, want a distinct value in [1, %d]",
				what, e.Key.ASID, e.Key.VPN, e.Stamp, stamp)
		}
		if a.contains(e.Key) {
			return fmt.Errorf("tlb: checkpoint has duplicate %s entry (asid %d, vpn %#x)", what, e.Key.ASID, e.Key.VPN)
		}
		a.fill(e.Key)
		a.slots[a.slots[a.end].next].Stamp = e.Stamp
	}
	a.stamp = stamp
	return nil
}
