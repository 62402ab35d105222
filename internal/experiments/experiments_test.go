package experiments

import (
	"strings"
	"testing"

	"masksim/internal/workload"
	"masksim/sim"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Cols: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRowf(2, "v", 3.14159, 7)
	s := tab.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "3.14", "7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryCoversDesignDoc(t *testing.T) {
	// Every experiment promised in DESIGN.md's per-experiment index must be
	// registered.
	want := []string{
		"fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig12", "fig13", "fig14", "fig15",
		"tab3", "tab4", "comp-tlb", "comp-cache", "comp-dram",
		"sens-tlbsize", "sens-pagesize", "sens-memsched", "sens-warpsched", "sens-tokens",
		"storage", "calib", "ablate", "anatomy", "ext-paging", "ext-prefetch",
	}
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %s not registered", id)
		}
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := RunReport("nope", Options{Cycles: 100}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestStorageExperimentIsPure(t *testing.T) {
	rep, err := RunReport("storage", Options{Cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) < 5 {
		t.Fatal("storage accounting incomplete")
	}
}

func TestRepresentativePairsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range RepresentativePairs {
		workload.MustByName(p.A)
		workload.MustByName(p.B)
		if seen[p.Name()] {
			t.Fatalf("duplicate pair %s", p.Name())
		}
		seen[p.Name()] = true
	}
	zero, one, two := categorize(RepresentativePairs)
	if len(zero) == 0 || len(one) == 0 || len(two) == 0 {
		t.Fatal("representative pairs do not cover all categories")
	}
}

func TestHarnessAloneCaching(t *testing.T) {
	h := NewHarness(1200)
	cfg := sim.SharedTLBConfig()
	cfg.Cores = 4
	cfg.WarpsPerCore = 8
	a, err := h.AloneIPC(cfg, "NN", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.AloneIPC(cfg, "NN", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("alone IPC cache returned different values")
	}
	if a <= 0 {
		t.Fatal("alone IPC not positive")
	}
}

func TestRunMatrixSmall(t *testing.T) {
	h := NewHarness(1200)
	small := func(name string, design sim.Design) sim.Config {
		c := sim.SharedTLBConfig()
		c.Name = name
		c.Cores = 4
		c.WarpsPerCore = 8
		c.Design = design
		return c
	}
	pairs := []workload.Pair{{A: "NN", B: "LUD"}}
	m, err := h.RunMatrix(small("base", sim.DesignSharedTLB), []sim.Config{small("base", sim.DesignSharedTLB), small("ideal", sim.DesignIdeal)}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Cell(pairs[0], "base")
	if c == nil || c.Results == nil {
		t.Fatal("matrix cell missing")
	}
	if !c.OK() {
		t.Fatalf("cell failed: %v", c.Err)
	}
	if m.MeanWS("base", nil) <= 0 {
		t.Fatal("mean WS not positive")
	}
	if m.MeanIPCThroughput("ideal", nil) <= 0 {
		t.Fatal("mean throughput not positive")
	}
	if m.MeanUnfairness("base", nil) <= 0 {
		t.Fatal("mean unfairness not positive")
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Cols: []string{"a", "b"}}
	tab.AddRow("1", "he,llo")
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"he,llo\"\n"
	if got := b.String(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// TestTab4VariantsValidate checks that every design Table 4 runs on its
// platforms is a configuration the simulator accepts, not one whose cells
// would fail and drop out of the table's means.
func TestTab4VariantsValidate(t *testing.T) {
	for _, plat := range tab4Platforms {
		for _, cfg := range tab4Variants(plat) {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s: %v", cfg.Name, err)
			}
		}
	}
}
