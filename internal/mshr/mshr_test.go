package mshr

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refEntry is one entry of the reference model: a Go map of keys to their
// payload and waiters, in arrival order.
type refEntry struct {
	payload int
	waiters []int
}

// image is an entry as Image writes it and Restore reads it.
type image struct {
	Key     uint64
	Payload int
	Waiters []int
}

// tableShapes are the limits and keys the fuzzer drives: a table without a
// limit, small limits, and keys that all hash to one bucket, so that every
// lookup walks one chain.
var tableShapes = []struct {
	limit int
	keys  *Keys[uint64]
}{
	{0, Numbers("key")},
	{3, Numbers("key")},
	{20, Numbers("key")},
	{0, &Keys[uint64]{Hash: func(uint64) uint64 { return 0 }, Compare: cmp.Compare[uint64], Name: func(k uint64) string { return fmt.Sprint(k) }}},
}

func snapshot(t *Table[uint64, int, int]) []image {
	return Image(t, func(k uint64, p int, ws []int) image { return image{k, p, slices.Clone(ws)} })
}

func restore(t *Table[uint64, int, int], img []image) error {
	return t.Restore("entries", len(img), func(i int, wait func(int)) (uint64, int, error) {
		for _, w := range img[i].Waiters {
			if w < 0 {
				return 0, 0, fmt.Errorf("entry %d: negative waiter", i)
			}
			wait(w)
		}
		return img[i].Key, img[i].Payload, nil
	})
}

// driveTable runs prog on a table and on the reference model and checks
// after every op that they hold the same entries, payloads and waiters in
// the same order. Each op is two bytes: what to do, and its argument, whose
// low four bits pick a key (sixteen keys, so entries merge and collide).
func driveTable(t *testing.T, limit int, keys *Keys[uint64], prog []byte) {
	t.Helper()
	tab := Table[uint64, int, int]{}.Renewed(limit, keys)
	ref := map[uint64]*refEntry{}
	next := 0 // the next waiter's value: waiters are distinct
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%8, prog[step+1]
		k := uint64(arg % 16)
		switch op {
		case 0, 1, 2: // a miss: merge into k's entry or open one
			e, ok := tab.Find(k)
			if _, want := ref[k]; ok != want {
				t.Fatalf("step %d: Find(%d) = %v, reference %v", step, k, ok, want)
			}
			if !ok {
				if tab.Full() {
					if len(ref) < limit {
						t.Fatalf("step %d: table of %d entries full, limit %d", step, len(ref), limit)
					}
					continue
				}
				e = tab.Open(k, int(arg))
				ref[k] = &refEntry{payload: int(arg)}
			}
			tab.Add(e, next)
			ref[k].waiters = append(ref[k].waiters, next)
			next++
		case 3, 4: // a fill: close k's entry and wake its waiters
			e, ok := tab.Find(k)
			if !ok {
				continue
			}
			want := ref[k]
			delete(ref, k)
			if tab.Payload(e) != want.payload || tab.Count(e) != len(want.waiters) || tab.Key(e) != k {
				t.Fatalf("step %d: entry %d is key %d, payload %d, %d waiters; reference %d, %+v",
					step, e, tab.Key(e), tab.Payload(e), tab.Count(e), k, *want)
			}
			p, ws := tab.Close(e)
			var got []int
			for w, ok := tab.Pop(&ws); ok; w, ok = tab.Pop(&ws) {
				got = append(got, w)
				// A woken waiter misses again at once, on another key: the
				// closed entry's waiters must not be disturbed.
				if k2 := (k + uint64(w)) % 16; k2 != k && w%3 == 0 {
					if e2, ok := tab.Find(k2); ok {
						tab.Add(e2, next)
						ref[k2].waiters = append(ref[k2].waiters, next)
						next++
					} else if !tab.Full() {
						tab.Add(tab.Open(k2, w), next)
						ref[k2] = &refEntry{payload: w, waiters: []int{next}}
						next++
					}
				}
			}
			if p != want.payload || !slices.Equal(got, want.waiters) {
				t.Fatalf("step %d: closing %d gave payload %d, waiters %v; reference %d, %v", step, k, p, got, want.payload, want.waiters)
			}
		case 5: // image round trip onto a renewed table
			img := snapshot(&tab)
			tab = tab.Renewed(limit, keys)
			if tab.Len() != 0 {
				t.Fatalf("step %d: renewed table holds %d entries", step, tab.Len())
			}
			if err := restore(&tab, img); err != nil {
				t.Fatalf("step %d: restoring the table's own image: %v", step, err)
			}
		case 6: // hostile images: a repeated key, one entry past the limit
			img := snapshot(&tab)
			if len(img) > 0 {
				bad := append(slices.Clone(img), image{Key: img[int(arg)%len(img)].Key})
				fresh := Table[uint64, int, int]{}.Renewed(limit, keys)
				err := restore(&fresh, bad)
				if len(bad) > limit && limit > 0 {
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("checkpoint has %d entries, capacity is %d", len(bad), limit)) {
						t.Fatalf("step %d: image of %d entries into a limit of %d: %v", step, len(bad), limit, err)
					}
				} else if want := "checkpoint has two entries of " + keys.Name(bad[len(bad)-1].Key); err == nil || err.Error() != want {
					t.Fatalf("step %d: image naming a key twice: %v, want %q", step, err, want)
				}
			}
			if limit > 0 {
				over := make([]image, limit+1)
				for i := range over {
					over[i].Key = uint64(i)
				}
				fresh := Table[uint64, int, int]{}.Renewed(limit, keys)
				if err := restore(&fresh, over); err == nil {
					t.Fatalf("step %d: an image of %d entries restored into a limit of %d", step, len(over), limit)
				}
			}
		case 7: // an error of the image's own, which comes back as it is
			img := snapshot(&tab)
			if len(img) > 0 {
				img[0].Waiters = append(slices.Clone(img[0].Waiters), -1)
				fresh := Table[uint64, int, int]{}.Renewed(limit, keys)
				if err := restore(&fresh, img); err == nil || err.Error() != "entry 0: negative waiter" {
					t.Fatalf("step %d: restore of a bad waiter: %v", step, err)
				}
			}
		}
		checkTable(t, step, &tab, ref)
	}
}

// checkTable fails unless tab holds exactly ref, and its image is ref in
// ascending key order.
func checkTable(t *testing.T, step int, tab *Table[uint64, int, int], ref map[uint64]*refEntry) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("step %d: table holds %d entries, reference %d", step, tab.Len(), len(ref))
	}
	img := snapshot(tab)
	if !slices.IsSortedFunc(img, func(a, b image) int { return cmp.Compare(a.Key, b.Key) }) {
		t.Fatalf("step %d: image not in ascending key order: %+v", step, img)
	}
	for _, m := range img {
		want, ok := ref[m.Key]
		if !ok || m.Payload != want.payload || !slices.Equal(m.Waiters, want.waiters) {
			t.Fatalf("step %d: image entry %+v, reference %+v", step, m, want)
		}
	}
}

func FuzzTable(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 1, 0, 2, 3, 1, 5, 0, 0, 3, 3, 3, 3, 2})
	f.Add(uint8(1), []byte{0, 1, 0, 2, 0, 3, 0, 4, 6, 0, 3, 2, 0, 4, 5, 0, 6, 1})
	f.Add(uint8(2), []byte("\x00\x05\x01\x05\x02\x15\x03\x05\x07\x00\x05\x00\x04\x15"))
	f.Add(uint8(3), []byte{0, 0, 0, 16, 0, 1, 0, 2, 3, 16, 3, 0, 5, 0, 6, 1})
	long := make([]byte, 4000)
	rand.New(rand.NewSource(5)).Read(long)
	f.Add(uint8(1), long)
	f.Fuzz(func(t *testing.T, shape uint8, prog []byte) {
		s := tableShapes[int(shape)%len(tableShapes)]
		driveTable(t, s.limit, s.keys, prog)
	})
}

// TestTableMatchesMap drives every shape with long seeded programs.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prog := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(prog)
		for _, s := range tableShapes {
			driveTable(t, s.limit, s.keys, prog)
		}
	}
}

// TestTableSteadyStateAllocs checks that misses, merges and fills allocate
// nothing once the table has grown, and that a renewed table keeps what it
// grew.
func TestTableSteadyStateAllocs(t *testing.T) {
	keys := Numbers("line")
	tab := Table[uint64, struct{}, *int]{}.Renewed(32, keys)
	x := new(int)
	lap := func() {
		for i := uint64(0); i < 300; i++ { // fewer waiters than a renewed arena keeps
			k := i * 7 % 40
			if e, ok := tab.Find(k); ok {
				tab.Add(e, x)
			} else if !tab.Full() {
				tab.Add(tab.Open(k, struct{}{}), x)
			}
			if i%5 == 0 {
				if e, ok := tab.Find(i % 40); ok {
					_, ws := tab.Close(e)
					for _, ok := tab.Pop(&ws); ok; _, ok = tab.Pop(&ws) {
					}
				}
			}
		}
	}
	lap()
	if allocs := testing.AllocsPerRun(20, lap); allocs != 0 {
		t.Fatalf("a lap of misses, merges and fills allocated %v objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		tab = tab.Renewed(32, keys)
		lap()
	}); allocs != 0 {
		t.Fatalf("a lap on a renewed table allocated %v objects, want 0", allocs)
	}
}
