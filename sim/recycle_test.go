package sim

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"masksim/internal/dram"
	"masksim/internal/pagetable"
	"masksim/internal/workload"
)

// A recycled simulator must be indistinguishable from a new one. The oracle
// is the behaviour this replaces: every cell a Recycler builds is also built
// by sim.New, and the two must agree on everything observable — the Results,
// and the checkpoint bytes at a mid-run cut and at the end.

// cellSize is how many fuzz bytes describe one cell.
const cellSize = 8

// recycleMixes are the app mixes a cell picks from: pairs, alone runs on all
// and on half of the cores, an uneven split, three apps.
var recycleMixes = []struct {
	names []string
	// split maps the machine's core count to the per-app assignment.
	split func(cores int) []int
}{
	{[]string{"3DS", "CONS"}, func(c int) []int { return EvenSplit(c, 2) }},
	{[]string{"MUM", "GUP"}, func(c int) []int { return EvenSplit(c, 2) }},
	{[]string{"3DS", "HISTO"}, func(c int) []int { return EvenSplit(c, 2) }},
	{[]string{"RED", "BP"}, func(c int) []int { return EvenSplit(c, 2) }},
	{[]string{"3DS"}, func(c int) []int { return []int{c} }},
	{[]string{"GUP"}, func(c int) []int { return []int{c / 2} }},
	{[]string{"CONS", "3DS"}, func(c int) []int { return []int{1, c - 2} }},
	{[]string{"3DS", "HISTO", "MUM"}, func(c int) []int { return EvenSplit(c, 3) }},
}

// recycleCell is one decoded simulation.
type recycleCell struct {
	cfg    Config
	apps   []workload.App
	split  []int
	cycles int64
	cut    int64 // checkpoint cadence of the cut run; 0 = no cut
}

// decodeCell maps eight fuzz bytes onto a cell: design, app mix, knobs,
// machine and TLB/cache geometry, run length, cut point.
func decodeCell(b []byte) recycleCell {
	names := ConfigNames()
	cfg, _ := ConfigByName(names[int(b[0])%len(names)])
	mix := recycleMixes[int(b[1])%len(recycleMixes)]

	if b[2]&1 != 0 {
		cfg.PageSize = pagetable.PageSize2M
	}
	// A bit whose knob Validate rejects for the design decodes to the design
	// alone. The simulator used to ignore each such knob, so the cell runs as
	// it always did; the one exception is the prefetcher under Static, which
	// used to run and is no longer a valid combination.
	if b[2]&2 != 0 && cfg.Design != DesignIdeal {
		cfg.DemandPaging, cfg.FaultLatency, cfg.FaultConcurrency = true, 500, 4
	}
	cfg.FastForward = b[2]&4 == 0
	cfg.TLBPrefetch = b[2]&8 != 0 && cfg.Design == DesignSharedTLB
	if b[2]&16 != 0 {
		cfg.WatchdogCheckEvery = 1000
	}
	if b[2]&32 != 0 {
		cfg.TelemetryEpoch = 700
	}
	cfg.RoundRobinSched = b[2]&64 != 0
	if b[2]&128 != 0 && cfg.DRAMPolicy != dram.MASK {
		cfg.DRAMPolicy = dram.FCFS
	}

	machine := [][2]int{{4, 16}, {8, 32}, {30, 64}, {12, 64}}[b[3]&3]
	cfg.Cores, cfg.WarpsPerCore = machine[0], machine[1]
	cfg.L1TLBEntries = []int{64, 16, 128, 8}[b[3]>>2&3]
	l2tlb := [][2]int{{512, 16}, {64, 4}, {1024, 16}, {128, 8}}[b[3]>>4&3]
	cfg.L2TLBEntries, cfg.L2TLBWays = l2tlb[0], l2tlb[1]
	cfg.L2Cache.SizeBytes = []int{2 << 20, 512 << 10, 4 << 20, 128 << 10}[b[3]>>6&3]
	if b[7]&1 != 0 {
		cfg.TimeMuxQuantum, cfg.TimeMuxEvict = 1000, 0.5
	}
	if b[7]&2 != 0 {
		cfg.DRAM.Channels, cfg.DRAM.BanksPerChannel = 4, 8
	}

	c := recycleCell{cfg: cfg, split: mix.split(cfg.Cores)}
	for i, n := range mix.names {
		c.apps = append(c.apps, workload.NewApp(i, n))
	}
	if len(c.apps) == 1 && c.cfg.Design == DesignStatic {
		c.cfg.Design = DesignSharedTLB // as PrepareAlone: alone runs never partition
	}
	c.cycles = 1 + (int64(b[4])<<8|int64(b[5]))%20000
	if b[6] != 0 {
		// Between a quarter and three quarters of the way in, so a cut run
		// writes at most four checkpoints.
		c.cut = max(1, c.cycles*int64(64+b[6]%128)/256)
	}
	return c
}

// builder is sim.New or a Recycler's New.
type builder func(cfg Config, apps []workload.App, split []int) (*Simulator, error)

// cellOutcome is everything observable about one cell.
type cellOutcome struct {
	res   *Results
	final []byte
	// cutImage is the checkpoint at the cut and resumed the Results of a
	// second simulator restored from it and run to the end (cut cells only).
	cutImage []byte
	resumed  *Results
}

// runCell builds, runs and images one cell, handing every simulator it is
// done with to done.
func runCell(t *testing.T, build builder, done func(*Simulator), c recycleCell) (out cellOutcome, err error) {
	t.Helper()
	image := func(s *Simulator) []byte {
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cfg := c.cfg
	if c.cut > 0 {
		cfg.CheckpointEvery, cfg.CheckpointDir = c.cut, t.TempDir()
	}
	s, err := build(cfg, c.apps, c.split)
	if err != nil {
		return out, err
	}
	if out.res, err = s.Run(context.Background(), c.cycles); err != nil {
		t.Fatalf("run: %v", err)
	}
	out.final = image(s)
	if c.cut > 0 {
		if out.cutImage, err = os.ReadFile(s.checkpointPath(c.cut)); err != nil {
			t.Fatal(err)
		}
	}
	done(s)
	if c.cut > 0 {
		// Restore onto whatever the builder hands out next: for a Recycler,
		// the simulator that just took the checkpoint.
		rs, err := build(c.cfg, c.apps, c.split)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.RestoreCheckpoint(bytes.NewReader(out.cutImage)); err != nil {
			t.Fatalf("restore at %d: %v", c.cut, err)
		}
		if out.resumed, err = rs.Run(context.Background(), c.cycles); err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		done(rs)
	}
	return out, nil
}

// recycledEqualsFresh drives one Recycler through the cells spec describes
// and checks each against a new simulator.
func recycledEqualsFresh(t *testing.T, spec []byte) {
	t.Helper()
	var r Recycler
	drop := func(*Simulator) {}
	for i := 0; i+cellSize <= len(spec); i += cellSize {
		c := decodeCell(spec[i : i+cellSize])
		want, werr := runCell(t, New, drop, c)
		got, gerr := runCell(t, r.New, r.Put, c)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("cell %d: sim.New: %v, Recycler.New: %v", i/cellSize, werr, gerr)
		}
		if werr != nil {
			continue // both refuse the cell; the recycler keeps what it has
		}
		for _, cmp := range []struct {
			what      string
			want, got *Results
		}{
			{"Results", want.res, got.res},
			{"resumed Results", want.resumed, got.resumed},
		} {
			if !reflect.DeepEqual(cmp.want, cmp.got) {
				t.Fatalf("cell %d (%s %v split %v, %d cycles, cut %d): %s of the recycled simulator differ from a new one's\nnew:      %+v\nrecycled: %+v",
					i/cellSize, c.cfg.Name, c.apps, c.split, c.cycles, c.cut, cmp.what, cmp.want, cmp.got)
			}
		}
		for _, cmp := range []struct {
			what      string
			want, got []byte
		}{
			{"final image", want.final, got.final},
			{"image at the cut", want.cutImage, got.cutImage},
		} {
			if !bytes.Equal(cmp.want, cmp.got) {
				t.Fatalf("cell %d (%s %v split %v, %d cycles, cut %d): %s of the recycled simulator differs from a new one's: %s",
					i/cellSize, c.cfg.Name, c.apps, c.split, c.cycles, c.cut, cmp.what, payloadDiff(t, cmp.want, cmp.got))
			}
		}
		if c.cut > 0 && !reflect.DeepEqual(got.res, got.resumed) {
			t.Fatalf("cell %d: recycled simulator restored at %d diverged from the uninterrupted run", i/cellSize, c.cut)
		}
	}
}

// cell spells one cell of a seed: design and mix by index into ConfigNames
// and recycleMixes, then knobs, geometry, cycles (high, low), cut, extras.
func cell(design, mix, knobs, geometry byte, cycles int, cut, extra byte) []byte {
	return []byte{design, mix, knobs, geometry, byte((cycles - 1) >> 8), byte(cycles - 1), cut, extra}
}

// Design indices in ConfigNames.
const (
	dStatic = iota
	dPWCache
	dSharedTLB
	dMASKTLB
	dMASKCache
	dMASKDRAM
	dMASK
	dIdeal
)

// recycleSeeds is the seed corpus: the interleavings most likely to leave
// something behind.
var recycleSeeds = [][]byte{
	// A → B → A on the full machine: SharedTLB 3DS+HISTO, MASK 3DS+CONS, back.
	bytes.Join([][]byte{
		cell(dSharedTLB, 2, 0, 2, 3000, 0, 0),
		cell(dMASK, 0, 0, 2, 3000, 0, 0),
		cell(dSharedTLB, 2, 0, 2, 3000, 0, 0),
	}, nil),
	// Big → small → big geometry: machine, TLBs, L2, DRAM all shrink and grow.
	bytes.Join([][]byte{
		cell(dMASK, 1, 0, 0b10_10_10_10, 2500, 0, 0),
		cell(dMASK, 1, 0, 0b11_01_11_00, 2500, 0, 2),
		cell(dMASK, 1, 0, 0b10_10_10_10, 2500, 0, 0),
	}, nil),
	// Designs that own different components: the bypass cache and class
	// queues, no TLBs at all, a page walk cache.
	bytes.Join([][]byte{
		cell(dMASK, 0, 0, 1, 4000, 0, 0),
		cell(dIdeal, 0, 0, 1, 4000, 0, 0),
		cell(dPWCache, 0, 0, 1, 4000, 0, 0),
		cell(dMASK, 0, 0, 1, 4000, 0, 0),
	}, nil),
	// A cut restores onto the simulator that just took the checkpoint; then
	// paging, prefetch, the watchdog and telemetry over what it leaves.
	bytes.Join([][]byte{
		cell(dMASK, 0, 0, 1, 5000, 100, 0),
		cell(dSharedTLB, 1, 2|8|16|32, 1, 6000, 40, 0),
		cell(dPWCache, 0, 0, 1, 3000, 200, 0),
	}, nil),
	// Alone runs, uneven splits, three apps, static partitions, 2 MB pages,
	// time multiplexing, both alternative schedulers, a one-cycle run.
	bytes.Join([][]byte{
		cell(dStatic, 3, 0, 1, 3000, 0, 0),
		cell(dSharedTLB, 4, 0, 1, 3000, 0, 0),
		cell(dMASK, 6, 1, 3, 2000, 0, 0),
		cell(dMASKDRAM, 7, 64, 1, 3000, 0, 1),
		cell(dSharedTLB, 5, 128, 0, 3000, 0, 0),
		cell(dMASKTLB, 0, 4, 0, 1, 0, 0),
		cell(dMASKCache, 0, 0, 0, 20000, 0, 0),
	}, nil),
}

// FuzzRecycledEqualsFresh interleaves arbitrary cells on one Recycler; a plain
// `go test` runs the seeds.
func FuzzRecycledEqualsFresh(f *testing.F) {
	for _, seed := range recycleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		if len(spec) > 6*cellSize {
			spec = spec[:6*cellSize] // bound one input's run time
		}
		recycledEqualsFresh(t, spec)
	})
}

// TestRecyclerKeepsOnlyCleanSimulators pins what Put accepts: a simulator
// that never ran, or whose run was aborted, is dropped; a clean one is handed
// out again, once.
func TestRecyclerKeepsOnlyCleanSimulators(t *testing.T) {
	var r Recycler
	apps, split := []workload.App{workload.NewApp(0, "NN")}, []int{4}
	build := func() *Simulator {
		s, err := r.New(tinyConfig(), apps, split)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	unrun := build()
	r.Put(unrun)
	aborted := build()
	if aborted == unrun {
		t.Fatal("a simulator that never ran was recycled")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := aborted.Run(ctx, 100_000); err == nil {
		t.Fatal("cancelled run did not fail")
	}
	r.Put(aborted)
	clean := build()
	if clean == aborted {
		t.Fatal("an aborted simulator was recycled")
	}
	clean.mustRun(t, 100)
	r.Put(clean)
	r.Put(clean)
	if again := build(); again != clean {
		t.Fatal("a clean simulator was not recycled")
	}
	if twice := build(); twice == clean {
		t.Fatal("one Put recycled a simulator twice")
	}
	if _, err := r.New(tinyConfig(), apps, []int{5}); err == nil {
		t.Fatal("invalid request built")
	}
}
