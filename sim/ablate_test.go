package sim_test

import (
	"context"
	"testing"

	"masksim/internal/dram"
	"masksim/sim"
)

// TestAblateDRAM is a diagnostic over the Address-Space-Aware DRAM
// scheduler's two halves: the full scheduler and the golden-only variant
// (ThreshMax=0) must both stay live and keep both applications progressing.
func TestAblateDRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine diagnostic")
	}
	for _, tc := range []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"SharedTLB", func(c *sim.Config) {}},
		{"gold+silver", func(c *sim.Config) { c.DRAMPolicy = dram.MASK }},
		{"gold-only", func(c *sim.Config) { c.DRAMPolicy = dram.MASK; c.ThreshMax = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.SharedTLBConfig()
			tc.mut(&cfg)
			res, err := sim.Run(context.Background(), cfg, []string{"3DS", "CONS"}, 30000)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-12s total=%.2f appIPC=%.2f/%.2f walkLat=%.0f", tc.name,
				res.TotalIPC, res.Apps[0].IPC, res.Apps[1].IPC, res.Walker.AvgLatency())
			for _, a := range res.Apps {
				if a.IPC <= 0.1 {
					t.Fatalf("%s: app %s starved (IPC=%.3f)", tc.name, a.Name, a.IPC)
				}
			}
		})
	}
}
