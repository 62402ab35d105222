// Package mshr provides the one miss table behind every set of miss-status
// holding registers in the model: a cache's line fetches and bypass fetches,
// an L1 TLB's missed translations, the shared TLB's misses feeding the
// walker. An entry is a key, a payload the owner chooses and the waiters
// merged into the miss, in arrival order. Entries are values in one slot
// slice found through intrusive hash chains, and the waiters are threaded
// through one index-linked arena: no entry is a heap object, and a merge
// allocates only when the arena grows (docs/MODEL.md §1).
package mshr

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"masksim/internal/slab"
)

// Keys says how a table hashes its keys, orders them in an image and names
// one in an error.
type Keys[K comparable] struct {
	Hash    func(K) uint64
	Compare func(a, b K) int
	Name    func(K) string
}

// Numbers returns the keys of a table keyed by a number — a line, a page —
// which an error names as noun and the number in hex.
func Numbers(noun string) *Keys[uint64] {
	return &Keys[uint64]{
		Hash:    func(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 },
		Compare: cmp.Compare[uint64],
		Name:    func(k uint64) string { return fmt.Sprintf("%s %#x", noun, k) },
	}
}

// Table is a set of outstanding misses: keys K, payloads P, waiters W. The
// zero Table is made usable by Renewed. A bucket, a chain link and a waiter
// link hold an index plus one, so zero ends a list and a cleared array is
// empty.
type Table[K comparable, P, W any] struct {
	keys    *Keys[K]
	limit   int
	entries []entry[K, P] // the open entries, in no order
	buckets []int32       // chain heads, a power of two
	// segs is the waiter arena: segment 0 holds minNodes nodes and each
	// later one as many as those before it, so the arena grows without
	// copying. carved counts the nodes handed out; free heads the vacated.
	segs   [][]node[W]
	carved int32
	free   int32
}

type entry[K comparable, P any] struct {
	key        K
	payload    P
	head, tail int32 // waiters, oldest first
	n          int32 // how many
	chain      int32 // next entry of the bucket
}

type node[W any] struct {
	w    W
	next int32
}

// Waiters is a cursor over one entry's waiters in arrival order.
type Waiters struct{ next int32 }

// The first sizes of a table without a limit and of a waiter arena (a power
// of two).
const (
	minEntries = 16
	minNodes   = 64
)

// Renewed returns t emptied, holding at most limit entries (0 = no limit)
// keyed as keys says: a constructor's and a Retire's one call. It keeps the
// slot slice while small (slab.Grown) and the arena's first segments up to
// slab.KeepBytes (docs/MODEL.md §11).
func (t Table[K, P, W]) Renewed(limit int, keys *Keys[K]) Table[K, P, W] {
	r := Table[K, P, W]{keys: keys, limit: limit}
	if r.entries = slab.Grown(t.entries); r.entries != nil {
		r.buckets = slab.Slice(t.buckets, len(t.buckets))
	}
	keep, bytes := 0, 0
	for ; keep < len(t.segs); keep++ {
		if bytes += len(t.segs[keep]) * int(unsafe.Sizeof(node[W]{})); bytes > slab.KeepBytes {
			break
		}
		clear(t.segs[keep])
	}
	clear(t.segs[keep:])
	r.segs = t.segs[:keep]
	return r
}

// Len reports how many entries are open.
func (t *Table[K, P, W]) Len() int { return len(t.entries) }

// Full reports whether the table holds its limit of entries.
func (t *Table[K, P, W]) Full() bool { return t.limit > 0 && len(t.entries) >= t.limit }

// Key, Payload and Count describe entry e; Waiters returns a cursor over its
// waiters for Next.
func (t *Table[K, P, W]) Key(e int) K           { return t.entries[e].key }
func (t *Table[K, P, W]) Payload(e int) P       { return t.entries[e].payload }
func (t *Table[K, P, W]) Count(e int) int       { return int(t.entries[e].n) }
func (t *Table[K, P, W]) Waiters(e int) Waiters { return Waiters{t.entries[e].head} }

func (t *Table[K, P, W]) bucket(k K) *int32 {
	return &t.buckets[t.keys.Hash(k)>>32&uint64(len(t.buckets)-1)]
}

// link puts entry e at the head of its bucket's chain; unlink takes it out.
func (t *Table[K, P, W]) link(e int) {
	b := t.bucket(t.entries[e].key)
	t.entries[e].chain, *b = *b, int32(e+1)
}

func (t *Table[K, P, W]) unlink(e int) {
	p := t.bucket(t.entries[e].key)
	for *p != int32(e+1) {
		p = &t.entries[*p-1].chain
	}
	*p = t.entries[e].chain
}

// Find returns k's entry, if one is open. An entry's number holds until the
// next Open or Close.
func (t *Table[K, P, W]) Find(k K) (e int, ok bool) {
	if len(t.buckets) == 0 {
		return -1, false
	}
	for i := *t.bucket(k); i != 0; i = t.entries[i-1].chain {
		if t.entries[i-1].key == k {
			return int(i - 1), true
		}
	}
	return -1, false
}

// Open opens an entry of k, which has none, with payload p and no waiters.
// It does not check the limit: the owner decides what a full table does.
func (t *Table[K, P, W]) Open(k K, p P) int {
	if len(t.entries) == cap(t.entries) {
		// Double the slots, to the limit at first, and rehash them into
		// twice as many buckets.
		n := max(2*cap(t.entries), t.limit, minEntries)
		t.entries = append(make([]entry[K, P], 0, n), t.entries...)
		t.buckets = make([]int32, 1<<bits.Len(uint(2*n-1)))
		for e := range t.entries {
			t.link(e)
		}
	}
	t.entries = append(t.entries, entry[K, P]{key: k, payload: p})
	t.link(len(t.entries) - 1)
	return len(t.entries) - 1
}

// node returns the arena node of waiter link i.
func (t *Table[K, P, W]) node(i int32) *node[W] {
	n := uint32(i - 1)
	s := bits.Len32(n / minNodes)
	if s > 0 {
		n -= minNodes << (s - 1)
	}
	return &t.segs[s][n]
}

// Add merges waiter w into entry e, after the waiters already there.
func (t *Table[K, P, W]) Add(e int, w W) {
	i := t.free
	if i != 0 {
		t.free = t.node(i).next
	} else {
		if s := len(t.segs); s == 0 || int(t.carved) == minNodes<<(s-1) {
			t.segs = append(t.segs, make([]node[W], max(int(t.carved), minNodes)))
		}
		t.carved++
		i = t.carved
	}
	*t.node(i) = node[W]{w: w}
	en := &t.entries[e]
	if en.tail == 0 {
		en.head = i
	} else {
		t.node(en.tail).next = i
	}
	en.tail = i
	en.n++
}

// Next returns the waiter under the cursor and advances it; ok is false
// past the last.
func (t *Table[K, P, W]) Next(ws *Waiters) (w W, ok bool) {
	if ws.next == 0 {
		return w, false
	}
	nd := t.node(ws.next)
	ws.next = nd.next
	return nd.w, true
}

// Close removes entry e, renumbering the last entry e, and returns its
// payload and a cursor over its waiters for Pop. The waiters stay in the
// arena until popped, so what the caller does with each — complete a
// request that opens, joins or closes another entry — cannot disturb the
// rest.
func (t *Table[K, P, W]) Close(e int) (P, Waiters) {
	en, last := t.entries[e], len(t.entries)-1
	t.unlink(e)
	if e != last {
		t.unlink(last)
		t.entries[e] = t.entries[last]
		t.link(e)
	}
	t.entries[last] = entry[K, P]{}
	t.entries = t.entries[:last]
	return en.payload, Waiters{en.head}
}

// Pop is Next for a closed entry's cursor: it frees each node it passes.
func (t *Table[K, P, W]) Pop(ws *Waiters) (w W, ok bool) {
	i := ws.next
	if i == 0 {
		return w, false
	}
	nd := t.node(i)
	w, ws.next = nd.w, nd.next
	*nd = node[W]{next: t.free}
	t.free = i
	return w, true
}

// Image returns what image makes of each entry — its key, its payload, its
// waiters in arrival order in ws, which is reused — in ascending key order,
// or nil for an empty table.
func Image[E any, K comparable, P, W any](t *Table[K, P, W], image func(k K, p P, ws []W) E) []E {
	if len(t.entries) == 0 {
		return nil
	}
	order := make([]int, len(t.entries))
	for e := range order {
		order[e] = e
	}
	slices.SortFunc(order, func(a, b int) int { return t.keys.Compare(t.entries[a].key, t.entries[b].key) })
	out := make([]E, len(order))
	var ws []W
	for i, e := range order {
		ws = ws[:0]
		for c := t.Waiters(e); c.next != 0; {
			w, _ := t.Next(&c)
			ws = append(ws, w)
		}
		out[i] = image(t.entries[e].key, t.entries[e].payload, ws)
	}
	return out
}

// Restore fills the empty table from an image of n entries: fill(i, wait)
// passes the i-th entry's waiters to wait in arrival order and returns its
// key and payload. The image is hostile input: more entries than the limit,
// or two of one key, is an error naming the entries what; fill's errors come
// back as they are.
func (t *Table[K, P, W]) Restore(what string, n int, fill func(i int, wait func(W)) (K, P, error)) error {
	if t.limit > 0 && n > t.limit {
		return fmt.Errorf("checkpoint has %d %s, capacity is %d", n, what, t.limit)
	}
	var zero entry[K, P]
	for i := range n {
		// The waiters join a placeholder under the zero key, which takes the
		// entry's key once fill names it.
		e := t.Open(zero.key, zero.payload)
		k, p, err := fill(i, func(w W) { t.Add(e, w) })
		if err != nil {
			return err
		}
		t.unlink(e)
		if _, dup := t.Find(k); dup {
			return fmt.Errorf("checkpoint has two %s of %s", what, t.keys.Name(k))
		}
		t.entries[e].key, t.entries[e].payload = k, p
		t.link(e)
	}
	return nil
}
