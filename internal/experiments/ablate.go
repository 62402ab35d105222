package experiments

import (
	"masksim/internal/dram"
	"masksim/internal/metrics"
	"masksim/sim"
)

// Ablate runs every combination of MASK's three mechanisms over the
// contended pair set, showing how the components compose — the ablation
// study DESIGN.md calls out. The paper evaluates the three singletons
// (Figure 11); the pairwise and triple combinations quantify interaction
// effects on this substrate.
func Ablate(h *Harness, full bool) (*Table, error) {
	pairs := pairSet(full)
	combos := []struct {
		name   string
		mask   sim.Mechanisms
		policy dram.Policy
	}{
		{"baseline", sim.Mechanisms{}, dram.FRFCFS},
		{"T (tokens)", sim.Mechanisms{Tokens: true}, dram.FRFCFS},
		{"C (L2 bypass)", sim.Mechanisms{L2Bypass: true}, dram.FRFCFS},
		{"D (DRAM sched)", sim.Mechanisms{}, dram.MASK},
		{"T+C", sim.Mechanisms{Tokens: true, L2Bypass: true}, dram.FRFCFS},
		{"T+D", sim.Mechanisms{Tokens: true}, dram.MASK},
		{"C+D", sim.Mechanisms{L2Bypass: true}, dram.MASK},
		{"T+C+D (MASK)", sim.Mechanisms{Tokens: true, L2Bypass: true}, dram.MASK},
	}
	t := &Table{
		ID:    "ablate",
		Title: "mechanism ablation: mean total IPC over the pair set, relative to baseline",
		Cols:  []string{"combination", "meanIPC", "vsBaseline%"},
	}
	var jobs []BatchJob
	for _, combo := range combos {
		cfg := sim.SharedTLBConfig()
		cfg.Name = combo.name
		cfg.Mask, cfg.DRAMPolicy = combo.mask, combo.policy
		for _, p := range pairs {
			jobs = append(jobs, BatchJob{Cfg: cfg, Names: []string{p.A, p.B}})
		}
	}
	results, err := h.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	var base float64
	for i, combo := range combos {
		var xs []float64
		for k := range pairs {
			xs = append(xs, results[i*len(pairs)+k].TotalIPC)
		}
		mean := metrics.Mean(xs)
		if i == 0 {
			base = mean
		}
		t.AddRowf(2, combo.name, mean, 100*(mean/base-1))
	}
	return t, nil
}

func init() {
	register("ablate", "MASK mechanism-combination ablation (DESIGN.md)", one(Ablate))
}
