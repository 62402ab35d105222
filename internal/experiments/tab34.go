package experiments

import (
	"fmt"

	"masksim/internal/dram"
	"masksim/internal/metrics"
	"masksim/internal/workload"
	"masksim/sim"
)

// Tab3 reproduces Table 3: performance of SharedTLB and MASK normalized to
// Ideal as the number of concurrently-executing applications grows from one
// to five. The paper's values fall with app count while MASK's advantage
// grows.
func Tab3(h *Harness, full bool) (*Table, error) {
	appPool := []string{"3DS", "HISTO", "CONS", "GUP", "RED"}
	t := &Table{
		ID:    "tab3",
		Title: "scalability: performance normalized to Ideal vs app count",
		Note:  "paper: SharedTLB 47.1%..33.1%, MASK 68.5%..52.9% for 1..5 apps",
		Cols:  []string{"apps", "SharedTLB/Ideal%", "MASK/Ideal%"},
	}
	cfgNames := []string{"Ideal", "SharedTLB", "MASK"}
	var jobs []BatchJob
	for n := 1; n <= 5; n++ {
		for _, cfgName := range cfgNames {
			cfg, _ := sim.ConfigByName(cfgName)
			jobs = append(jobs, BatchJob{Cfg: cfg, Names: appPool[:n]})
		}
	}
	results, err := h.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	for n := 1; n <= 5; n++ {
		// Total IPC is the cross-config comparable quantity here; the paper
		// normalizes each design's throughput to Ideal's.
		base := (n - 1) * len(cfgNames)
		ideal := results[base].TotalIPC
		shared := results[base+1].TotalIPC
		mask := results[base+2].TotalIPC
		t.AddRowf(1, fmt.Sprintf("%d", n), 100*shared/ideal, 100*mask/ideal)
	}
	return t, nil
}

// tab4Platforms are Table 4's platforms, by standard configuration name.
var tab4Platforms = []string{"Fermi", "Integrated"}

// tab4Variants returns plat's PWCache, SharedTLB, MASK and Ideal designs,
// named plat-<design>.
func tab4Variants(plat string) []sim.Config {
	base, _ := sim.ConfigByName(plat)
	variant := func(mut func(*sim.Config)) sim.Config {
		c := base
		mut(&c)
		return c
	}
	return []sim.Config{
		variant(func(c *sim.Config) { c.Name = plat + "-PWCache"; c.Design = sim.DesignPWCache }),
		variant(func(c *sim.Config) { c.Name = plat + "-SharedTLB" }),
		variant(func(c *sim.Config) {
			c.Name = plat + "-MASK"
			c.Mask = sim.Mechanisms{Tokens: true, L2Bypass: true}
			c.DRAMPolicy = dram.MASK
		}),
		variant(func(c *sim.Config) { c.Name = plat + "-Ideal"; c.Design = sim.DesignIdeal }),
	}
}

// Tab4 reproduces Table 4: generality across GPU architectures — the
// Fermi-like and integrated-GPU-like platforms, with PWCache, SharedTLB and
// MASK normalized to each platform's Ideal.
func Tab4(h *Harness, full bool) (*Table, error) {
	pairs := pairSet(false)
	if full {
		pairs = pairSet(true)
	}
	t := &Table{
		ID:    "tab4",
		Title: "generality: average performance normalized to Ideal per platform",
		Note:  "paper (Fermi): PWCache 53.1%, SharedTLB 60.4%, MASK 78.0%; (integrated): 52.1%, 38.2%, 64.5%",
		Cols:  []string{"platform", "PWCache%", "SharedTLB%", "MASK%"},
	}
	for _, plat := range tab4Platforms {
		cfgs := tab4Variants(plat)
		m, err := h.RunMatrix(cfgs[1], cfgs, pairs) // alone runs on the SharedTLB variant
		if err != nil {
			return nil, err
		}
		var pw, sh, mk []float64
		for _, p := range pairs {
			// Normalizing needs every design's cell for the pair; skip pairs
			// with any failed cell so means cover the survivors.
			if !m.OK(p) {
				continue
			}
			ideal := m.Cell(p, plat+"-Ideal").Metrics.WeightedSpeedup
			if ideal <= 0 {
				continue
			}
			pw = append(pw, m.Cell(p, plat+"-PWCache").Metrics.WeightedSpeedup/ideal)
			sh = append(sh, m.Cell(p, plat+"-SharedTLB").Metrics.WeightedSpeedup/ideal)
			mk = append(mk, m.Cell(p, plat+"-MASK").Metrics.WeightedSpeedup/ideal)
		}
		t.AddRowf(1, plat, 100*metrics.Mean(pw), 100*metrics.Mean(sh), 100*metrics.Mean(mk))
	}
	return t, nil
}

var _ = workload.Pairs35

func init() {
	register("tab3", "scalability 1-5 concurrent apps (Table 3)", one(Tab3))
	register("tab4", "generality across architectures (Table 4)", one(Tab4))
}
