package sim

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"masksim/internal/dram"
	"masksim/internal/memreq"
)

// scenario is one pinned simulation. run takes a config mutator so the
// fast-forward equivalence suite can rerun the exact scenario with one knob
// flipped; pass a no-op for the canonical configuration.
type scenario struct {
	name string
	run  func(mod func(*Config)) (*Results, error)
}

// driftScenarios cover every design the hot path flows through: the MASK
// mechanisms (tokens + bypass + Golden/Silver DRAM queues), the SharedTLB and
// PWCache baselines, Static partitioning, single-app calibration runs on the
// Table 2 reference quadrants (one representative per quadrant), and the two
// DRAM scheduler variants no design selects by default: plain FCFS (§7.3)
// and MASK with the Silver Queue disabled (Golden Queue only).
var driftScenarios = []scenario{
	{"mask-3DS+CONS", func(mod func(*Config)) (*Results, error) {
		cfg := MASKConfig()
		mod(&cfg)
		return Run(context.Background(), cfg, []string{"3DS", "CONS"}, 4000)
	}},
	{"sharedtlb-MUM+GUP", func(mod func(*Config)) (*Results, error) {
		cfg := SharedTLBConfig()
		mod(&cfg)
		return Run(context.Background(), cfg, []string{"MUM", "GUP"}, 4000)
	}},
	{"pwcache-3DS+CONS", func(mod func(*Config)) (*Results, error) {
		cfg := PWCacheConfig()
		mod(&cfg)
		return Run(context.Background(), cfg, []string{"3DS", "CONS"}, 4000)
	}},
	{"static-RED+BP", func(mod func(*Config)) (*Results, error) {
		cfg := StaticConfig()
		mod(&cfg)
		return Run(context.Background(), cfg, []string{"RED", "BP"}, 4000)
	}},
	{"alone-3DS", func(mod func(*Config)) (*Results, error) {
		cfg := SharedTLBConfig()
		mod(&cfg)
		return RunAlone(context.Background(), cfg, "3DS", 30, 4000)
	}},
	{"alone-GUP", func(mod func(*Config)) (*Results, error) {
		cfg := SharedTLBConfig()
		mod(&cfg)
		return RunAlone(context.Background(), cfg, "GUP", 30, 4000)
	}},
	{"alone-NN", func(mod func(*Config)) (*Results, error) {
		cfg := SharedTLBConfig()
		mod(&cfg)
		return RunAlone(context.Background(), cfg, "NN", 30, 4000)
	}},
	{"alone-MUM", func(mod func(*Config)) (*Results, error) {
		cfg := SharedTLBConfig()
		mod(&cfg)
		return RunAlone(context.Background(), cfg, "MUM", 30, 4000)
	}},
	{"fcfs-3DS+CONS", func(mod func(*Config)) (*Results, error) {
		cfg := SharedTLBConfig()
		cfg.DRAMPolicy = dram.FCFS
		mod(&cfg)
		return Run(context.Background(), cfg, []string{"3DS", "CONS"}, 4000)
	}},
	{"gold-only-3DS+CONS", func(mod func(*Config)) (*Results, error) {
		cfg := MASKConfig()
		cfg.ThreshMax = 0
		mod(&cfg)
		return Run(context.Background(), cfg, []string{"3DS", "CONS"}, 4000)
	}},
}

// unmodified is the no-op config mutator: the scenario's canonical run.
func unmodified(*Config) {}

// driftFingerprint renders every integer counter (and the derived floats) of
// a Results into a canonical text form. Any behavioural change — one extra
// cache probe, one reordered DRAM pick — changes the fingerprint.
func driftFingerprint(r *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d totalIPC=%.12g idle=%.12g trans=%d data=%d\n",
		r.Cycles, r.TotalIPC, r.IdleFraction, r.TransStallCycles, r.DataStallCycles)
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "app=%s cores=%d inst=%d mem=%d l1tlb=%d/%d/%d/%d/%d l2tlb=%d/%d/%d bus=%d\n",
			a.Name, a.Cores, a.Instructions, a.MemInsts,
			a.L1TLB.Accesses, a.L1TLB.Hits, a.L1TLB.Misses,
			a.L1TLB.StalledWarpSum, a.L1TLB.StalledWarpCount,
			a.L2TLB.Accesses, a.L2TLB.Hits, a.L2TLB.Misses,
			a.DRAMBusCycles)
	}
	w := r.Walker
	fmt.Fprintf(&b, "walker=%d/%d/%d/%d/%d/%d/%d\n",
		w.Started, w.Completed, w.LatSum, w.Samples, w.ActiveSum, w.ActiveMax, w.ActivePeak)
	for cls := memreq.Data; cls <= memreq.Translation; cls++ {
		c := r.DRAMClass[cls]
		fmt.Fprintf(&b, "dram[%s]=%d/%d/%d/%d/%d/%d util=%.12g\n",
			cls, c.Requests, c.BusCycles, c.LatSum, c.RowHits, c.RowClosed, c.RowConflicts,
			r.DRAMBandwidthUtil[cls])
	}
	for lvl := 0; lvl <= memreq.MaxWalkLevel; lvl++ {
		s := r.L2CacheLevel[lvl]
		fmt.Fprintf(&b, "l2c[%d]=%d/%d/%d/%d\n", lvl, s.Accesses, s.Hits, s.Misses, s.Bypasses)
	}
	fmt.Fprintf(&b, "l2tlbTotal=%d/%d/%d bypassHit=%.12g\n",
		r.L2TLBTotal.Accesses, r.L2TLBTotal.Hits, r.L2TLBTotal.Misses, r.BypassCacheHitRate)
	return b.String()
}

const driftGoldenPath = "testdata/drift.golden"

// TestNoBehavioralDrift pins the exact simulation outcomes of the drift
// scenarios against golden fingerprints recorded before the request/walk
// pooling work. Object pooling must recycle memory without perturbing a
// single counter; regenerate with MASKSIM_UPDATE_DRIFT=1 only for a change
// that intentionally alters simulated behaviour.
func TestNoBehavioralDrift(t *testing.T) {
	var b strings.Builder
	for _, sc := range driftScenarios {
		res, err := sc.run(unmodified)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&b, "== %s\n%s", sc.name, driftFingerprint(res))
	}
	got := b.String()

	if os.Getenv("MASKSIM_UPDATE_DRIFT") != "" {
		if err := os.WriteFile(driftGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", driftGoldenPath)
		return
	}
	want, err := os.ReadFile(driftGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with MASKSIM_UPDATE_DRIFT=1 to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("simulation outcomes drifted from %s:\n%s", driftGoldenPath, diffLines(string(want), got))
	}
}

// diffLines reports the first divergent lines of two texts.
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(texts equal?)"
}
