package sim

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"masksim/internal/dram"
	"masksim/internal/memreq"
)

// scenario is one pinned simulation: a configuration, its applications and
// a run length.
type scenario struct {
	name   string
	cfg    func() Config
	names  []string
	alone  int // >0: single-app alone run on this many cores
	cycles int64
}

// run simulates sc with cfg changed by mod, so the fast-forward equivalence
// suite can rerun the exact scenario with one knob flipped.
func (sc scenario) run(mod func(*Config)) (*Results, error) {
	cfg := sc.cfg()
	mod(&cfg)
	if sc.alone > 0 {
		return RunAlone(context.Background(), cfg, sc.names[0], sc.alone, sc.cycles)
	}
	return Run(context.Background(), cfg, sc.names, sc.cycles)
}

// driftScenarios cover every design the hot path flows through: the MASK
// mechanisms (tokens + bypass + Golden/Silver DRAM queues), the SharedTLB and
// PWCache baselines, Static partitioning, single-app calibration runs on the
// Table 2 reference quadrants (one representative per quadrant), and the two
// DRAM scheduler variants no design selects by default: plain FCFS (§7.3)
// and MASK with the Silver Queue disabled (Golden Queue only).
var driftScenarios = []scenario{
	{name: "mask-3DS+CONS", cfg: MASKConfig, names: []string{"3DS", "CONS"}, cycles: 4000},
	{name: "sharedtlb-MUM+GUP", cfg: SharedTLBConfig, names: []string{"MUM", "GUP"}, cycles: 4000},
	{name: "pwcache-3DS+CONS", cfg: PWCacheConfig, names: []string{"3DS", "CONS"}, cycles: 4000},
	{name: "static-RED+BP", cfg: StaticConfig, names: []string{"RED", "BP"}, cycles: 4000},
	{name: "alone-3DS", cfg: SharedTLBConfig, names: []string{"3DS"}, alone: 30, cycles: 4000},
	{name: "alone-GUP", cfg: SharedTLBConfig, names: []string{"GUP"}, alone: 30, cycles: 4000},
	{name: "alone-NN", cfg: SharedTLBConfig, names: []string{"NN"}, alone: 30, cycles: 4000},
	{name: "alone-MUM", cfg: SharedTLBConfig, names: []string{"MUM"}, alone: 30, cycles: 4000},
	{name: "fcfs-3DS+CONS", cfg: func() Config {
		cfg := SharedTLBConfig()
		cfg.DRAMPolicy = dram.FCFS
		return cfg
	}, names: []string{"3DS", "CONS"}, cycles: 4000},
	{name: "gold-only-3DS+CONS", cfg: func() Config {
		cfg := MASKConfig()
		cfg.ThreshMax = 0
		return cfg
	}, names: []string{"3DS", "CONS"}, cycles: 4000},
}

// uninterrupted is one memoised run: the Results of a scenario simulated
// from cycle 0 to its end with fast-forward on or off, and what it was.
type uninterrupted struct {
	once sync.Once
	key  string // the configuration's Key and the applications
	res  *Results
	err  error
}

var (
	uninterruptedMu   sync.Mutex
	uninterruptedRuns = map[string]*uninterrupted{}
)

// uninterruptedRun returns sc's uninterrupted run with fast-forward ff,
// simulated once per test binary: the drift, fast-forward and checkpoint
// suites all compare against it. Callers must treat the Results as
// read-only.
func uninterruptedRun(t *testing.T, sc scenario, ff bool) *Results {
	t.Helper()
	cfg := sc.cfg()
	cfg.FastForward = ff
	what := fmt.Sprintf("%s|%q|%d", cfg.Key(), sc.names, sc.alone)
	uninterruptedMu.Lock()
	name := fmt.Sprintf("%s/ff=%t/%d", sc.name, ff, sc.cycles)
	r := uninterruptedRuns[name]
	if r == nil {
		r = &uninterrupted{key: what}
		uninterruptedRuns[name] = r
	}
	uninterruptedMu.Unlock()
	if r.key != what {
		t.Fatalf("two scenarios named %s simulate different cells", name)
	}
	r.once.Do(func() { r.res, r.err = sc.run(func(c *Config) { c.FastForward = ff }) })
	if r.err != nil {
		t.Fatalf("%s: %v", name, r.err)
	}
	return r.res
}

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
		// Every drift configuration runs with fast-forward on.
		fmt.Fprintf(&b, "== %s\n%s", sc.name, driftFingerprint(uninterruptedRun(t, sc, true)))
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
