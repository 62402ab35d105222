package experiments

import (
	"fmt"

	"masksim/sim"
)

// Storage reproduces §7.4's hardware storage-cost accounting for MASK,
// computed from the simulated configuration exactly as the paper itemises
// it.
func Storage(h *Harness, full bool) *Table {
	cfg := sim.MASKConfig()
	t := &Table{
		ID:    "storage",
		Title: "MASK hardware storage cost (§7.4 accounting)",
		Cols:  []string{"structure", "bits", "bytes"},
	}
	add := func(name string, bits int) {
		t.AddRow(name, fmt.Sprintf("%d", bits), fmt.Sprintf("%.1f", float64(bits)/8))
	}

	// ASID tags: 9 bits per shared L2 TLB entry.
	asidBits := 9 * cfg.L2TLBEntries
	add("L2 TLB ASID tags (9b x entries)", asidBits)

	// Per-core TLB-Fill Token state: two 16-bit hit/miss counters, a
	// 256-bit active-warp vector, an 8-bit unique-warp counter.
	perCore := 2*16 + 256 + 8
	add(fmt.Sprintf("token state per core (x%d cores)", cfg.Cores), perCore*cfg.Cores)

	// Shared: 32-entry bypass cache (tag+frame ~ 64b each), 30 15-bit token
	// counters, 30 1-bit direction registers.
	add("TLB bypass cache (32 x ~64b)", sim.BypassCacheEntries*64)
	add("token counters (30 x 15b + 30 x 1b)", 30*15+30)

	// L2 bypass: ten 8-byte counters per... the paper: ten 8-byte counters
	// total for level hit/access tracking.
	add("L2 bypass hit-rate counters (10 x 8B)", 10*64)

	// DRAM scheduler queues per channel: 16-entry golden (FIFO pointers),
	// 64-entry silver, 192-entry normal vs the baseline 256-entry buffer:
	// extra storage ~6% of the request queue per the paper.
	add(fmt.Sprintf("golden queue entries (16/channel x %d channels, ~64b)", cfg.DRAM.Channels),
		16*64*cfg.DRAM.Channels)

	total := asidBits + perCore*cfg.Cores + sim.BypassCacheEntries*64 + 30*15 + 30 + 10*64 + 16*64*cfg.DRAM.Channels
	t.AddRow("TOTAL", fmt.Sprintf("%d", total), fmt.Sprintf("%.0f", float64(total)/8))
	t.Note = "paper total: 706B of core+TLB state (1.6% of L1 TLB, 3.8% of L2 TLB, +7% ASID bits), <0.1% area, <0.01% power"
	return t
}

func init() {
	register("storage", "MASK storage cost accounting (§7.4)",
		one(func(h *Harness, full bool) (*Table, error) { return Storage(h, full), nil }))
}
