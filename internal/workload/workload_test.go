package workload

import (
	"testing"
	"testing/quick"
)

func TestAllThirtyBenchmarksExist(t *testing.T) {
	names := Names()
	if len(names) != 30 {
		t.Fatalf("%d benchmarks defined, want 30 (Figures 5/6)", len(names))
	}
	for _, n := range names {
		p := MustByName(n)
		if p.Name != n {
			t.Fatalf("profile %q has Name %q", n, p.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

func TestTable2Quadrants(t *testing.T) {
	// The paper's Table 2 classification must be encoded faithfully.
	table2 := map[string][2]MissClass{
		"LUD": {Low, Low}, "NN": {Low, Low},
		"BFS2": {Low, High}, "FFT": {Low, High}, "HISTO": {Low, High},
		"NW": {Low, High}, "QTC": {Low, High}, "RAY": {Low, High},
		"SAD": {Low, High}, "SCP": {Low, High},
		"BP": {High, Low}, "GUP": {High, Low}, "HS": {High, Low}, "LPS": {High, Low},
		"3DS": {High, High}, "BLK": {High, High}, "CFD": {High, High},
		"CONS": {High, High}, "FWT": {High, High}, "LUH": {High, High},
		"MM": {High, High}, "MUM": {High, High}, "RED": {High, High},
		"SC": {High, High}, "SCAN": {High, High}, "SRAD": {High, High},
		"TRD": {High, High},
	}
	for name, want := range table2 {
		p := MustByName(name)
		if p.L1Class != want[0] || p.L2Class != want[1] {
			t.Errorf("%s classified %v/%v, Table 2 says %v/%v",
				name, p.L1Class, p.L2Class, want[0], want[1])
		}
	}
}

func TestPairs35(t *testing.T) {
	if len(Pairs35) != 35 {
		t.Fatalf("%d pairs, want 35", len(Pairs35))
	}
	for _, p := range Pairs35 {
		MustByName(p.A)
		MustByName(p.B)
	}
	var zero, one, two []Pair
	for _, p := range Pairs35 {
		switch p.HMRCount() {
		case 0:
			zero = append(zero, p)
		case 1:
			one = append(one, p)
		default:
			two = append(two, p)
		}
	}
	if len(zero)+len(one)+len(two) != 35 {
		t.Fatal("category split lost pairs")
	}
	if len(zero) != 8 {
		t.Fatalf("0-HMR has %d pairs, want 8 (Figure 12)", len(zero))
	}
}

func TestHMRCount(t *testing.T) {
	if (Pair{A: "3DS", B: "CONS"}).HMRCount() != 2 {
		t.Fatal("3DS_CONS should be 2-HMR")
	}
	if (Pair{A: "HISTO", B: "GUP"}).HMRCount() != 0 {
		t.Fatal("HISTO_GUP should be 0-HMR")
	}
}

// newStream builds warp's stream of an app of numWarps warps on its own,
// without its group barrier.
func newStream(p Profile, warp, numWarps int) *Stream {
	return NewStreamFactory(p, 1<<32, 4096, 64, numWarps, 42).stream(warp)
}

func TestStreamDeterminism(t *testing.T) {
	p := MustByName("3DS")
	s1 := newStream(p, 0, 64)
	s2 := newStream(p, 0, 64)
	for i := 0; i < 500; i++ {
		a := s1.NextMem()
		b := s2.NextMem()
		if a.Write != b.Write || len(a.Pages) != len(b.Pages) {
			t.Fatalf("streams diverged at inst %d", i)
		}
		for j := range a.Pages {
			if a.Pages[j].Lines[0] != b.Pages[j].Lines[0] {
				t.Fatalf("streams diverged at inst %d page %d", i, j)
			}
		}
		if s1.NextComputeGap() != s2.NextComputeGap() {
			t.Fatalf("compute gaps diverged at inst %d", i)
		}
	}
}

// Property: every address a stream generates lies on a page enumerated by
// PagesToMap — the simulator's pre-mapping covers all traffic.
func TestStreamAddressesWithinMappedSet(t *testing.T) {
	for _, name := range []string{"3DS", "HISTO", "GUP", "NN", "MUM"} {
		p := MustByName(name)
		const numWarps = 128
		mapped := map[uint64]bool{}
		shift := uint(12)
		p.PagesToMap(1<<32, 4096, numWarps, func(va uint64) { mapped[va>>shift] = true })
		for warp := 0; warp < numWarps; warp += 17 {
			s := newStream(p, warp, numWarps)
			for i := 0; i < 2000; i++ {
				inst := s.NextMem()
				for _, pg := range inst.Pages {
					for _, va := range pg.Lines {
						if !mapped[va>>shift] {
							t.Fatalf("%s warp %d generated unmapped page %#x",
								name, warp, va>>shift)
						}
					}
				}
			}
		}
	}
}

func TestMemInstShape(t *testing.T) {
	p := MustByName("MM") // LinesPerInst 16, Divergence 2
	s := newStream(p, 0, 64)
	sawDiverged := false
	for i := 0; i < 2000; i++ {
		inst := s.NextMem()
		if len(inst.Pages) < 1 {
			t.Fatal("instruction with no pages")
		}
		if len(inst.Pages[0].Lines) != p.LinesPerInst {
			t.Fatalf("primary page has %d lines, want %d", len(inst.Pages[0].Lines), p.LinesPerInst)
		}
		// All lines of one PageAccess must share a page.
		for _, pg := range inst.Pages {
			vpn := pg.Lines[0] >> 12
			for _, va := range pg.Lines {
				if va>>12 != vpn {
					t.Fatal("PageAccess spans pages")
				}
			}
		}
		if len(inst.Pages) > 1 {
			sawDiverged = true
		}
	}
	if !sawDiverged {
		t.Fatal("divergent profile never diverged")
	}
}

func TestWarpGroupsShareStreams(t *testing.T) {
	p := MustByName("3DS") // WarpsPerGroup 32
	a := newStream(p, 0, 64)
	b := newStream(p, 1, 64)  // same group
	c := newStream(p, 32, 64) // next group
	aInst := a.NextMem().Pages[0].Lines[0]
	bInst := b.NextMem().Pages[0].Lines[0]
	cInst := c.NextMem().Pages[0].Lines[0]
	if aInst != bInst {
		t.Fatal("group members generated different streams")
	}
	if aInst == cInst {
		t.Fatal("distinct groups generated identical first accesses")
	}
}

func TestVAStrideSpreadsPages(t *testing.T) {
	p := MustByName("3DS")
	if p.VAStridePages < 2 {
		t.Skip("profile not strided")
	}
	var vas []uint64
	p.PagesToMap(0, 4096, 64, func(va uint64) { vas = append(vas, va) })
	if len(vas) < 2 {
		t.Fatal("too few pages")
	}
	gap := vas[1] - vas[0]
	if gap != uint64(p.VAStridePages)*4096 {
		t.Fatalf("page gap %d, want stride %d pages", gap, p.VAStridePages)
	}
}

func TestGroupSync(t *testing.T) {
	g := &GroupSync{state: GroupSyncState{Steps: make([]int64, 3)}, window: 4}
	for i := 0; i < 4; i++ {
		g.Advance(0)
	}
	if !g.Stalled(0) {
		t.Fatal("member 4 ahead of window 4 not stalled")
	}
	if g.Stalled(1) {
		t.Fatal("slow member stalled")
	}
	// Others catch up; member 0 unblocks.
	for i := 0; i < 2; i++ {
		g.Advance(1)
		g.Advance(2)
	}
	if g.Stalled(0) {
		t.Fatal("member 0 still stalled after others caught up")
	}
	if lag := g.state.Steps[0] - g.min; lag != 2 {
		t.Fatalf("lag=%d, want 2", lag)
	}
}

func TestStreamFactorySharesSync(t *testing.T) {
	p := MustByName("3DS")
	f := NewStreamFactory(p, 1<<32, 4096, 64, 64, 7)
	a := f.New(0)
	b := f.New(1)
	if a.sync == nil || a.sync != b.sync {
		t.Fatal("group members do not share sync state")
	}
	c := f.New(32)
	if c.sync == a.sync {
		t.Fatal("different groups share sync state")
	}
}

func TestLayoutMonotonic(t *testing.T) {
	f := func(hotKB, privKB uint16, warps uint8) bool {
		p := Profile{HotBytes: int(hotKB) << 10, PrivateBytes: int(privKB) << 10,
			WarpsPerGroup: 8}
		n := int(warps)%256 + 8
		hot, priv := p.Layout(4096, n)
		return hot >= 1 && priv >= uint64(p.groups(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewAppSeedsDiffer(t *testing.T) {
	a := NewApp(0, "3DS")
	b := NewApp(1, "3DS")
	if a.Seed == b.Seed {
		t.Fatal("same benchmark in different slots got identical seeds")
	}
	if a.Profile.Name != "3DS" {
		t.Fatal("NewApp lost the profile")
	}
}
