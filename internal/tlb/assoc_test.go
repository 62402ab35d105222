package tlb

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"masksim/internal/memreq"
)

// refLRU is the structure assocLRU replaced — a Go map plus a full scan for
// the minimum stamp on every eviction — kept as the reference model.
type refLRU struct {
	size  int
	m     map[memreq.PageKey]*Entry
	stamp int64
}

func (r *refLRU) probe(k memreq.PageKey) bool {
	e, ok := r.m[k]
	if !ok {
		return false
	}
	r.stamp++
	e.Stamp = r.stamp
	return true
}

func (r *refLRU) fill(k memreq.PageKey) {
	r.stamp++
	if e, ok := r.m[k]; ok {
		e.Stamp = r.stamp
		return
	}
	if len(r.m) >= r.size {
		var victim memreq.PageKey
		victimStamp := int64(math.MaxInt64)
		for key, e := range r.m {
			if e.Stamp < victimStamp {
				victimStamp, victim = e.Stamp, key
			}
		}
		delete(r.m, victim)
	}
	r.m[k] = &Entry{Key: k, Stamp: r.stamp}
}

// flushFraction mirrors L1TLB.FlushFraction: every stride-th entry in
// ascending VPN order.
func (r *refLRU) flushFraction(fraction float64) {
	if fraction >= 1 {
		clear(r.m)
		return
	}
	es := r.byStamp()
	slices.SortFunc(es, func(x, y Entry) int { return cmp.Compare(x.Key.VPN, y.Key.VPN) })
	for i := 0; i < len(es); i += int(1 / fraction) {
		delete(r.m, es[i].Key)
	}
}

// byStamp returns the contents from LRU to MRU.
func (r *refLRU) byStamp() []Entry {
	es := make([]Entry, 0, len(r.m))
	for _, e := range r.m {
		es = append(es, *e)
	}
	slices.SortFunc(es, func(x, y Entry) int { return cmp.Compare(x.Stamp, y.Stamp) })
	return es
}

// checkLinks asserts the table's internal invariants: the recency ring reads
// the same in both directions and holds every slot once, the n valid ones
// first in descending stamp order, the unused ones (stamp 0) after them.
func checkLinks(t *testing.T, a *assocLRU) {
	t.Helper()
	var fwd []int32
	for i := a.slots[a.end].next; i != a.end && len(fwd) <= len(a.slots); i = a.slots[i].next {
		fwd = append(fwd, i)
	}
	var back []int32
	for i := a.slots[a.end].prev; i != a.end && len(back) <= len(a.slots); i = a.slots[i].prev {
		back = append(back, i)
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) || len(fwd) != int(a.end) {
		t.Fatalf("recency ring broken: MRU→LRU %v, LRU→MRU reversed %v, capacity %d", fwd, back, a.end)
	}
	for j, i := range fwd {
		s := a.slots[i].Stamp
		if (j < a.n) != (s != 0) || (j > 0 && j < a.n && s >= a.slots[fwd[j-1]].Stamp) {
			t.Fatalf("ring position %d (slot %d) has stamp %d with n=%d", j, i, s, a.n)
		}
	}
}

// driveAssocLRU interprets prog as a sequence of two-byte (op, arg) steps
// applied to an L1 TLB of the given capacity and to the reference model, and
// asserts after every step that both agree on hit/miss, contents, stamps
// (hence every future victim), entry count and membership.
func driveAssocLRU(t *testing.T, capacity int, prog []byte) {
	t.Helper()
	const asid = 3
	be := &fakeTransBackend{}
	l1, _ := newL1(asid, capacity, be)
	ref := &refLRU{size: capacity, m: map[memreq.PageKey]*Entry{}}
	universe := uint64(2*capacity + 3)
	fractions := []float64{0.1, 0.25, 0.34, 0.5, 1}

	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%8, prog[step+1]
		k := memreq.PageKey{ASID: asid, VPN: uint64(arg) % universe}
		switch op {
		case 0, 1, 2: // lookup through the public path; a miss fills
			hit := l1.Lookup(int64(step), k.VPN, 0, 0, true)
			if wantHit := ref.probe(k); hit != wantHit {
				t.Fatalf("step %d: Lookup(%#x) hit %v, reference %v", step, k.VPN, hit, wantHit)
			}
			if !hit {
				be.answerAll(int64(step))
				ref.fill(k)
			}
		case 3: // direct fill: insert or refresh
			l1.tab.fill(k)
			ref.fill(k)
		case 4: // delete
			l1.tab.remove(k)
			delete(ref.m, k)
		case 5:
			f := fractions[int(arg)%len(fractions)]
			l1.FlushFraction(f)
			ref.flushFraction(f)
		case 6:
			if arg%4 == 0 { // keep full flushes rare so the table fills
				l1.Flush()
				clear(ref.m)
			}
		case 7: // snapshot, shuffle into arbitrary (legacy map) order, restore into a fresh TLB
			img := l1.SnapshotState()
			rand.New(rand.NewSource(int64(arg))).Shuffle(len(img.Entries), func(i, j int) {
				img.Entries[i], img.Entries[j] = img.Entries[j], img.Entries[i]
			})
			l1, _ = newL1(asid, capacity, be)
			if err := l1.RestoreState(&memreq.Wiring{}, img); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
		}

		checkLinks(t, l1.tab)
		if got, want := l1.tab.entries(), ref.byStamp(); !slices.Equal(got, want) || l1.tab.stamp != ref.stamp {
			t.Fatalf("step %d (op %d): table %v stamp %d, reference %v stamp %d", step, op, got, l1.tab.stamp, want, ref.stamp)
		}
		if l1.tab.n != len(ref.m) {
			t.Fatalf("step %d: %d entries, reference %d", step, l1.tab.n, len(ref.m))
		}
		for vpn := uint64(0); vpn < universe; vpn++ {
			if _, want := ref.m[memreq.PageKey{ASID: asid, VPN: vpn}]; l1.tab.contains(memreq.PageKey{ASID: l1.asid, VPN: vpn}) != want {
				t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, vpn, !want, want)
			}
		}
	}
}

var assocCapacities = []int{1, 2, 32, 64}

func TestAssocLRUMatchesReference(t *testing.T) {
	for _, capacity := range assocCapacities {
		for seed := int64(1); seed <= 4; seed++ {
			prog := make([]byte, 6000)
			rand.New(rand.NewSource(seed)).Read(prog)
			driveAssocLRU(t, capacity, prog)
		}
	}
}

func FuzzAssocLRU(f *testing.F) {
	f.Add(uint8(0), []byte{3, 1, 3, 1, 0, 1, 3, 2, 7, 9, 3, 3})
	f.Add(uint8(1), []byte{3, 1, 3, 2, 0, 1, 3, 3, 4, 1, 5, 3, 3, 4, 7, 0, 3, 5})
	f.Add(uint8(2), []byte("\x03\x00\x03\x01\x03\x02\x05\x00\x07\x01\x06\x00\x00\x02"))
	long := make([]byte, 2000)
	rand.New(rand.NewSource(42)).Read(long)
	f.Add(uint8(3), long)
	f.Fuzz(func(t *testing.T, capSel uint8, prog []byte) {
		driveAssocLRU(t, assocCapacities[int(capSel)%len(assocCapacities)], prog)
	})
}

func TestAssocLRUSteadyStateAllocs(t *testing.T) {
	a := newAssocLRU(64)
	vpn := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 200; i++ { // misses fill and (once full) evict; hits touch
			vpn = (vpn*7 + 13) % 150
			if !a.probe(memreq.PageKey{ASID: 1, VPN: vpn}) {
				a.fill(memreq.PageKey{ASID: 1, VPN: vpn})
			}
		}
		a.reset()
	})
	if allocs != 0 {
		t.Fatalf("probe/fill/evict/reset allocated %v objects per run, want 0", allocs)
	}
}

func TestSnapshotEntriesInRecencyOrder(t *testing.T) {
	be := &fakeTransBackend{}
	l1, _ := newL1(1, 8, be)
	for _, vpn := range []uint64{5, 9, 2, 7, 9, 5, 11} {
		l1.Lookup(0, vpn, 0, 0, true)
		be.answerAll(1)
	}
	var vpns []uint64
	for _, e := range l1.SnapshotState().Entries {
		vpns = append(vpns, e.Key.VPN)
	}
	if want := []uint64{2, 7, 9, 5, 11}; !slices.Equal(vpns, want) {
		t.Fatalf("snapshot entries in order %v, want LRU→MRU %v", vpns, want)
	}
}

// TestRestoreRejectsHostileTableState feeds each malformed shape of the L1
// TLB and bypass-cache checkpoint sections to RestoreState: all must be
// structured errors.
func TestRestoreRejectsHostileTableState(t *testing.T) {
	entries := func(n int) []Entry {
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Key: memreq.PageKey{VPN: uint64(i)}, Stamp: int64(i + 1)}
		}
		return es
	}
	cases := []struct {
		name    string
		entries []Entry
		stamp   int64
		want    string // "" = must restore
	}{
		{"full", entries(4), 4, ""},
		{"empty", nil, 0, ""},
		{"oversize", entries(5), 5, "checkpoint has 5 L1 entries, capacity is 4"},
		{"duplicate key", []Entry{{Key: memreq.PageKey{VPN: 7}, Stamp: 1}, {Key: memreq.PageKey{VPN: 8}, Stamp: 2}, {Key: memreq.PageKey{VPN: 7}, Stamp: 3}}, 3, "duplicate L1 entry"},
		{"stamp above table stamp", []Entry{{Key: memreq.PageKey{VPN: 1}, Stamp: 1}, {Key: memreq.PageKey{VPN: 2}, Stamp: 9}}, 8, "has stamp 9"},
		{"stamp below one", []Entry{{Key: memreq.PageKey{VPN: 1}, Stamp: 0}}, 3, "has stamp 0"},
		{"repeated stamp", []Entry{{Key: memreq.PageKey{VPN: 1}, Stamp: 2}, {Key: memreq.PageKey{VPN: 2}, Stamp: 2}}, 3, "has stamp 2"},
	}
	for _, tc := range cases {
		// The same image through both owners of the table.
		l1 := NewL1(0, 0, 1, 4, &fakeTransBackend{})
		errL1 := l1.RestoreState(&memreq.Wiring{}, L1State{Entries: tc.entries, Stamp: tc.stamp})

		l2, _ := newL2(1, 4, nil)
		img := l2.SnapshotState()
		img.Bypass.Stamp = tc.stamp
		for _, e := range tc.entries {
			img.Bypass.Entries = append(img.Bypass.Entries, Entry{Key: memreq.PageKey{ASID: 1, VPN: e.Key.VPN}, Stamp: e.Stamp})
		}
		errL2 := l2.RestoreState(&memreq.Wiring{}, img)

		for owner, err := range map[string]error{"L1": errL1, "bypass-cache": errL2} {
			want := strings.ReplaceAll(tc.want, "L1", owner)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s, %s: unexpected error %v", tc.name, owner, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), want)):
				t.Errorf("%s, %s: error %v, want one containing %q", tc.name, owner, err, want)
			}
		}
		if tc.want == "" && (l1.tab.n != len(tc.entries) || l2.bypass.tab.n != len(tc.entries)) {
			t.Errorf("%s: restored %d L1 / %d bypass entries, want %d", tc.name, l1.tab.n, l2.bypass.tab.n, len(tc.entries))
		}
	}
}

// TestRestoreRejectsTokenMismatch restores a shared TLB image across the
// presence of the TLB-fill token policy, both ways: the image must say
// whether the TLB it came from had one.
func TestRestoreRejectsTokenMismatch(t *testing.T) {
	withTokens, _ := newL2(2, 4, NewTokenPolicy(2, 8, 0.8, true))
	without, _ := newL2(2, 4, nil)
	for _, tc := range []struct {
		name string
		img  L2State
		dst  *L2TLB
	}{
		{"token image on a TLB without tokens", withTokens.SnapshotState(), without},
		{"no token image on a TLB with tokens", without.SnapshotState(), withTokens},
	} {
		if err := tc.dst.RestoreState(&memreq.Wiring{}, tc.img); err == nil || !strings.Contains(err.Error(), "differ in their TLB-fill token policy") {
			t.Errorf("%s: error %v", tc.name, err)
		}
	}
	if err := withTokens.RestoreState(&memreq.Wiring{}, withTokens.SnapshotState()); err != nil {
		t.Fatalf("matching image: %v", err)
	}
}

// TestRestoreLegacyOrderSameVictims restores a state whose Entries arrive in
// arbitrary order (as the map-backed TLB wrote them) and checks the restored
// TLB evicts in the same sequence as the uninterrupted one.
func TestRestoreLegacyOrderSameVictims(t *testing.T) {
	be := &fakeTransBackend{}
	lookup := func(l1 *L1TLB, vpn uint64) {
		l1.Lookup(0, vpn, 0, 0, true)
		be.answerAll(1)
	}
	live, _ := newL1(1, 16, be)
	for i := uint64(0); i < 40; i++ {
		lookup(live, i*5%23)
	}
	img := live.SnapshotState()
	rand.New(rand.NewSource(7)).Shuffle(len(img.Entries), func(i, j int) {
		img.Entries[i], img.Entries[j] = img.Entries[j], img.Entries[i]
	})
	restored, _ := newL1(1, 16, be)
	if err := restored.RestoreState(&memreq.Wiring{}, img); err != nil {
		t.Fatal(err)
	}
	for i := uint64(100); i < 140; i++ {
		lookup(live, i)
		lookup(restored, i)
		for vpn := uint64(0); vpn < 140; vpn++ {
			if live.tab.contains(memreq.PageKey{ASID: live.asid, VPN: vpn}) != restored.tab.contains(memreq.PageKey{ASID: restored.asid, VPN: vpn}) {
				t.Fatalf("after filling %d: Contains(%d) live %v, restored %v", i, vpn, live.tab.contains(memreq.PageKey{ASID: live.asid, VPN: vpn}), restored.tab.contains(memreq.PageKey{ASID: restored.asid, VPN: vpn}))
			}
		}
	}
}
