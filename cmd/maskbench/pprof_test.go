package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var busySink uint64

// busy burns CPU in this package for d.
func busy(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	busySink = x
}

// TestFoldProfile profiles a known busy function and expects the reader to
// attribute the majority of the samples to this package.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busy(600 * time.Millisecond)
	pprof.StopCPUProfile()

	fold, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if fold.Total <= 0 {
		t.Fatal("profile holds no samples")
	}
	byPkg := map[string]int64{}
	for fn, v := range fold.ByFunc {
		byPkg[packageOf(fn)] += v
	}
	const self = "masksim/cmd/maskbench"
	if share := float64(byPkg[self]) / float64(fold.Total); share <= 0.5 {
		t.Fatalf("package %s got %.0f%% of the samples, want the majority; fold: %v", self, 100*share, byPkg)
	}
	shares, err := cpuShares(fold)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range profileLayers {
		sum += shares[shareName(l)]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer shares sum to %v, want 1", sum)
	}
	if shares["other.cpu_share"] <= 0.5 {
		t.Fatalf("the benchmark's own package belongs to other, which got %v", shares["other.cpu_share"])
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted as a profile")
	}
}

// TestCPUSharesNeedNames: a fold that cannot name a package for 80 % of its
// samples must fail loudly instead of reporting shares.
func TestCPUSharesNeedNames(t *testing.T) {
	fold := &profileFold{Total: 100, ByFunc: map[string]int64{"": 21, "masksim/internal/cache.(*Cache).Submit": 79}}
	if _, err := cpuShares(fold); err == nil || !strings.Contains(err.Error(), "79%") {
		t.Fatalf("want an error naming the 79%% resolved, got %v", err)
	}
	fold.ByFunc = map[string]int64{"": 20, "masksim/internal/cache.(*Cache).Submit": 80}
	shares, err := cpuShares(fold)
	if err != nil {
		t.Fatal(err)
	}
	if shares["cache.submit_cpu_share"] != 0.8 || shares["cache.cpu_share"] != 0.8 || shares["other.cpu_share"] != 0.2 {
		t.Fatalf("unexpected shares %v", shares)
	}
}

func TestPackageAndLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, pkg, layer string }{
		{"masksim/internal/cache.(*Cache).Submit", "masksim/internal/cache", "cache"},
		{"masksim/internal/tlb.(*L1TLB).fill", "masksim/internal/tlb", "tlb"},
		{"masksim/internal/rng.(*Source).Uint64", "masksim/internal/rng", "other"},
		{"masksim/sim.(*Simulator).Run", "masksim/sim", "sim"},
		{"runtime.mallocgc", "runtime", "runtime.malloc_gc"},
		{"runtime.(*mspan).nextFreeIndex", "runtime", "runtime.malloc_gc"},
		{"runtime.mapaccess2_fast64", "runtime", "runtime.map"},
		{"internal/runtime/maps.(*Iter).Next", "internal/runtime/maps", "runtime.map"},
		{"runtime.futex", "runtime", "runtime"},
		{"encoding/json.(*encodeState).marshal", "encoding/json", "json_http"},
		{"slices.SortFunc[go.shape.[]masksim/internal/x.T,go.shape.int]", "slices", "other"},
		{"main.main", "main", "other"},
		{"", "", "other"},
	} {
		if got := packageOf(c.fn); got != c.pkg {
			t.Errorf("packageOf(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := layerOf(c.fn); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.layer)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, q3 := quartiles(xs)
	if q1 != 1.75 || q3 != 5.25 { // python3: [1.75, 3.5, 5.25]
		t.Fatalf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
}
