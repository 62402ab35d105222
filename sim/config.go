// Package sim is the public API of masksim: it wires the simulated GPU
// (cores, TLBs, page table walker, caches, DRAM) according to a Config,
// runs multiprogrammed workloads, and reports the paper's metrics.
//
// A Config's Machine picks one point of the paper's design space with three
// values (docs/MODEL.md, "Design space"):
//
//	Design      — SharedTLB (private L1 TLBs + shared L2 TLB), PWCache (shared
//	              page walk cache, Power et al.), Static (SharedTLB with L2
//	              cache ways, L2 TLB ways and DRAM channels partitioned, as
//	              NVIDIA GRID / AMD FirePro, §2.2) or Ideal (free translation)
//	Mask        — MASK's TLB-Fill Tokens and L2 Bypass (§5.2, §5.3)
//	DRAMPolicy  — FR-FCFS, FCFS (§7.3) or MASK's scheduler (§5.4)
//
// MASK is SharedTLB with both mechanisms and the MASK policy; MASK-TLB,
// MASK-Cache and MASK-DRAM each enable one of the three (§7.2).
// Config.Validate rejects every combination the simulator could not honour.
package sim

import (
	"fmt"

	"masksim/internal/dram"
	"masksim/internal/faultinject"
	"masksim/internal/memreq"
	"masksim/internal/pagetable"
	"masksim/internal/telemetry"
)

// Design selects the translation hierarchy: the two baselines of Figure 2,
// static partitioning and the perfect TLB of Figure 11.
type Design uint8

// Translation hierarchy designs.
const (
	// DesignSharedTLB places a shared L2 TLB between the L1 TLBs and the
	// page table walker (Figure 2b). MASK builds on this design.
	DesignSharedTLB Design = iota
	// DesignPWCache routes L1 TLB misses directly to the walker, which
	// probes a shared page walk cache (Figure 2a).
	DesignPWCache
	// DesignStatic is the SharedTLB hierarchy with L2 cache ways, L2 TLB
	// ways and DRAM channels partitioned evenly across applications.
	DesignStatic
	// DesignIdeal makes every translation free (hypothetical perfect TLB):
	// no TLB or page walk cache is built and no page is ever walked.
	DesignIdeal
)

// String names the design.
func (d Design) String() string {
	return [...]string{DesignSharedTLB: "SharedTLB", DesignPWCache: "PWCache", DesignStatic: "Static", DesignIdeal: "Ideal"}[d]
}

// Mechanisms toggles MASK's two translation-side components independently
// (§7.2 evaluates each in isolation as MASK-TLB and MASK-Cache; the third,
// MASK-DRAM, is Config.DRAMPolicy = dram.MASK).
type Mechanisms struct {
	Tokens   bool // TLB-Fill Tokens + TLB bypass cache (§5.2)
	L2Bypass bool // Address-Translation-Aware L2 Bypass (§5.3)
}

// CacheParams configures one cache instance.
type CacheParams struct {
	SizeBytes    int
	Ways         int
	LineSize     int
	Banks        int
	PortsPerBank int
	Latency      int64
	QueueCap     int
	MSHRs        int
	// WriteCombineWindow enables store combining in write-through caches
	// (see cache.Config.WriteCombineWindow).
	WriteCombineWindow int64
}

// Parameters no experiment varies: the shared L2 TLB's ports, access latency
// and input queue, the walker's concurrent-walk limit (Table 1), and MASK's
// bypass cache and adaptation epoch (§5.2, §6).
const (
	l2TLBPorts        = 2
	l2TLBLatency      = 10
	l2TLBQueueCap     = 64
	walkerConcurrency = 64

	// BypassCacheEntries sizes the MASK TLB bypass cache (§5.2).
	BypassCacheEntries = 32
	// epochCycles is the adaptation epoch for tokens and the L2 bypass
	// policy; the paper uses 100K cycles. Run scales it down for short runs.
	epochCycles = 100_000

	// maxCores keeps the request sinks — the L2 cache, the page walk cache,
	// the walker, and each core and its L1 data cache — within the routes a
	// request can name.
	maxCores = (memreq.MaxRoute - 3) / 2
)

// Config describes one simulation run: the simulated Machine and the
// RunOptions that observe or steer the run. Both are embedded, so every
// field reads and assigns as cfg.Cores or cfg.FastForward.
type Config struct {
	Machine
	RunOptions
}

// Machine is the simulated GPU: paper Table 1's geometry and one point of
// the §5 design space. Every field is plain data. Two configs with equal
// Machines and equal TelemetryEpoch (Config.Key) simulate the same apps
// bit-identically, whatever their RunOptions.
type Machine struct {
	Cores        int
	WarpsPerCore int

	L1TLBEntries int

	L2TLBEntries int
	L2TLBWays    int

	L1Cache CacheParams
	L2Cache CacheParams
	// PWCache is the page walk cache used by DesignPWCache.
	PWCache CacheParams

	PageSize int

	DRAM dram.Config

	Design Design
	Mask   Mechanisms

	// TokenInitFraction is InitialTokens (§6: 80%).
	TokenInitFraction float64
	// ThreshMax is the Silver Queue quota ceiling (§6: 500).
	ThreshMax int

	// DRAMPolicy is every channel's scheduler: the baseline FR-FCFS, plain
	// FCFS (the §7.3 memory-scheduler sensitivity study) or MASK's
	// Address-Space-Aware scheduler (§5.4).
	DRAMPolicy dram.Policy

	// TimeMuxQuantum, when positive, models coarse time multiplexing: every
	// quantum the GPU's TLBs and caches lose TimeMuxEvict of their contents,
	// as if other processes ran in between (Figure 1's experiment).
	TimeMuxQuantum int64
	TimeMuxEvict   float64

	// DemandPaging enables the §5.5 extension: a page's first touch raises
	// a major fault serviced at FaultLatency cycles with FaultConcurrency
	// parallel handlers. Rejected under DesignIdeal, which never walks.
	DemandPaging     bool
	FaultLatency     int64
	FaultConcurrency int

	// RoundRobinSched replaces the GTO warp scheduler with round-robin
	// (warp-scheduler sensitivity; the paper's baseline is GTO).
	RoundRobinSched bool

	// TLBPrefetch enables the stride TLB prefetcher at the shared L2 TLB
	// (related-work comparison, §8.2). Requires DesignSharedTLB.
	TLBPrefetch bool
}

// RunOptions observe or steer one run without changing what it simulates.
// None but TelemetryEpoch reaches a checkpoint fingerprint or a result-cache
// key (Config.Key), so changing one keeps every checkpoint and cache entry.
type RunOptions struct {
	Name string

	// TelemetryEpoch, when positive, enables the cycle-level telemetry
	// subsystem: every TelemetryEpoch cycles the collector snapshots every
	// registered probe (per-app instructions, TLB hit rates and tokens, the
	// shared TLB miss rate, walker activity and latency quantiles, faults
	// outstanding, DRAM queue occupancy, per-core stall attribution) into
	// Results.Telemetry, exportable as CSV/JSONL/Chrome trace
	// (docs/OBSERVABILITY.md). Zero (the default) builds no collector and
	// adds no per-event work to the run.
	TelemetryEpoch int64

	// TelemetrySink, when non-nil (requires TelemetryEpoch > 0), streams
	// telemetry out as each epoch closes instead of accumulating it in
	// Results.Telemetry: attach CSV/JSONL/Chrome-trace writers to the sink
	// before the run, and the collector writes each epoch's rows the moment
	// the epoch completes, holding O(one epoch) telemetry state regardless of
	// run length. Output is byte-identical to the buffered exporters, and
	// checkpoints record the sink's resume offsets so a restored run
	// continues its output files without duplicate or missing epochs
	// (docs/FORMATS.md). The caller owns the sink and must Close it after the
	// run.
	TelemetrySink *telemetry.StreamSink

	// WatchdogCheckEvery is the progress-watchdog check interval in cycles.
	// If no component makes progress for watchdogStallChecks consecutive
	// checks, the run aborts with a diagnostic dump instead of spinning
	// forever. Zero disables the watchdog; negative is invalid.
	WatchdogCheckEvery int64

	// FaultPlan, when non-nil, injects the described faults into the run
	// (wedged page-table walks, dropped DRAM responses, an engine-tick
	// panic). Test-only: it exists to exercise the supervision layer.
	FaultPlan *faultinject.Plan

	// Deprecated: Shards is accepted and ignored. Intra-simulation sharding
	// was deleted (docs/MODEL.md §10): every simulation ticks on one
	// goroutine. The field survives only because cmd/maskbench still assigns
	// it.
	Shards int

	// FastForward enables the engine's next-event fast-forward: spans in
	// which every component is provably quiescent are jumped over instead of
	// ticked cycle by cycle. Results are bit-identical either way (see
	// docs/MODEL.md on the quiescence contract), so this is purely a speed
	// knob; the standard configurations enable it, and masksim's
	// -no-fastforward flag turns it off for A/B verification.
	FastForward bool

	// CheckpointEvery, when positive (and CheckpointDir is set), writes a
	// full simulator checkpoint every CheckpointEvery cycles, at the same
	// supervision boundaries as watchdog checks; fast-forward jumps are
	// capped so checkpoints land on exact cycles (docs/MODEL.md §9). Zero
	// (the default) takes no checkpoints and adds no per-cycle work.
	CheckpointEvery int64
	// CheckpointDir is the directory checkpoint files are written to as
	// <fingerprint>-<cycle>.ckpt (crash checkpoints as
	// <fingerprint>-crash.ckpt), via atomic tmp+rename writes.
	CheckpointDir string
	// Resume makes Run look for the newest valid checkpoint of this exact
	// simulation in CheckpointDir before simulating, restoring it and
	// running only the remaining cycles. Rejected (corrupt, truncated,
	// stale-format, wrong-simulation, impossible-state) files are skipped;
	// with no usable checkpoint the run starts clean.
	Resume bool
}

// Key identifies the simulation cfg describes; every checkpoint fingerprint
// and result-cache key derives from it. It renders the Machine, whose fields
// are plain data and so print by value, and TelemetryEpoch, because Results
// and the collector's checkpoint image hold the epoch's samples. No other
// RunOptions field reaches it.
func (c Config) Key() string {
	return fmt.Sprintf("%+v|epoch=%d", c.Machine, c.TelemetryEpoch)
}

// Baseline returns the paper's Table 1 system with the SharedTLB design and
// no MASK mechanisms.
func Baseline() Config {
	return Config{
		Machine: Machine{
			Cores:        30,
			WarpsPerCore: 64,

			L1TLBEntries: 64,

			L2TLBEntries: 512,
			L2TLBWays:    16,

			L1Cache: CacheParams{
				SizeBytes: 16 << 10, Ways: 4, LineSize: 64,
				Banks: 1, PortsPerBank: 2, Latency: 1, QueueCap: 32, MSHRs: 32,
				WriteCombineWindow: 128,
			},
			L2Cache: CacheParams{
				SizeBytes: 2 << 20, Ways: 16, LineSize: 64,
				Banks: 16, PortsPerBank: 2, Latency: 10, QueueCap: 32, MSHRs: 128,
			},
			PWCache: CacheParams{
				SizeBytes: 8 << 10, Ways: 16, LineSize: 64,
				Banks: 1, PortsPerBank: 2, Latency: 10, QueueCap: 32, MSHRs: 32,
			},

			PageSize: pagetable.PageSize4K,

			DRAM: dram.DefaultConfig(),

			Design: DesignSharedTLB,

			TokenInitFraction: 0.80,
			ThreshMax:         500,

			FaultLatency:     20_000,
			FaultConcurrency: 16,
		},
		RunOptions: RunOptions{
			Name: "SharedTLB",

			WatchdogCheckEvery: 25_000,

			FastForward: true,
		},
	}
}

// SharedTLBConfig is the best-performing state-of-the-art baseline.
func SharedTLBConfig() Config { return Baseline() }

// PWCacheConfig is the page-walk-cache baseline (Power et al.).
func PWCacheConfig() Config {
	c := Baseline()
	c.Name = "PWCache"
	c.Design = DesignPWCache
	return c
}

// StaticConfig models static hardware partitioning (NVIDIA GRID-style).
func StaticConfig() Config {
	c := Baseline()
	c.Name = "Static"
	c.Design = DesignStatic
	return c
}

// IdealConfig is the perfect-TLB upper bound.
func IdealConfig() Config {
	c := Baseline()
	c.Name = "Ideal"
	c.Design = DesignIdeal
	return c
}

// MASKConfig enables all three MASK mechanisms.
func MASKConfig() Config {
	c := Baseline()
	c.Name = "MASK"
	c.Mask = Mechanisms{Tokens: true, L2Bypass: true}
	c.DRAMPolicy = dram.MASK
	return c
}

// MASKTLBConfig enables only TLB-Fill Tokens (§7.2's MASK-TLB).
func MASKTLBConfig() Config {
	c := Baseline()
	c.Name = "MASK-TLB"
	c.Mask = Mechanisms{Tokens: true}
	return c
}

// MASKCacheConfig enables only the L2 bypass (§7.2's MASK-Cache).
func MASKCacheConfig() Config {
	c := Baseline()
	c.Name = "MASK-Cache"
	c.Mask = Mechanisms{L2Bypass: true}
	return c
}

// MASKDRAMConfig enables only the DRAM scheduler (§7.2's MASK-DRAM).
func MASKDRAMConfig() Config {
	c := Baseline()
	c.Name = "MASK-DRAM"
	c.DRAMPolicy = dram.MASK
	return c
}

// FermiConfig approximates the GTX480 (Fermi) platform of the generality
// study (§7.3, Table 4): 15 cores, smaller shared L2, narrower memory
// system.
func FermiConfig() Config {
	c := Baseline()
	c.Name = "Fermi"
	c.Cores = 16
	c.L2Cache.SizeBytes = 768 << 10
	c.L2Cache.Banks = 8
	c.DRAM.Channels = 6
	return c
}

// IntegratedConfig approximates the integrated-GPU platform of the
// generality study (§7.3, Table 4): fewer cores sharing a low-bandwidth
// memory system with slower DRAM.
func IntegratedConfig() Config {
	c := Baseline()
	c.Name = "Integrated"
	c.Cores = 8
	c.L2Cache.SizeBytes = 1 << 20
	c.L2Cache.Banks = 8
	c.DRAM.Channels = 2
	c.DRAM.RowHitLatency = 60
	c.DRAM.RowClosedLatency = 120
	c.DRAM.RowConflictLat = 180
	return c
}

// standardConfigs maps CLI names to constructors; ConfigByName resolves
// the set evaluated in Figures 11–15.
var standardConfigs = map[string]func() Config{
	"Static":     StaticConfig,
	"PWCache":    PWCacheConfig,
	"SharedTLB":  SharedTLBConfig,
	"MASK-TLB":   MASKTLBConfig,
	"MASK-Cache": MASKCacheConfig,
	"MASK-DRAM":  MASKDRAMConfig,
	"MASK":       MASKConfig,
	"Ideal":      IdealConfig,
	"Fermi":      FermiConfig,
	"Integrated": IntegratedConfig,
}

// ConfigByName returns the named standard configuration.
func ConfigByName(name string) (Config, error) {
	f, ok := standardConfigs[name]
	if !ok {
		return Config{}, fmt.Errorf("sim: unknown configuration %q", name)
	}
	return f(), nil
}

// ConfigNames lists the standard configuration names in evaluation order.
func ConfigNames() []string {
	return []string{"Static", "PWCache", "SharedTLB", "MASK-TLB", "MASK-Cache", "MASK-DRAM", "MASK", "Ideal"}
}

// Validate reports configuration errors early and clearly: the Machine's
// rules, then the run's.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	return c.RunOptions.Validate()
}

// Validate is the one gate of the design space: a field the chosen Design
// could not honour is an error naming both, never silently ignored.
func (m Machine) Validate() error {
	if m.Design > DesignIdeal {
		return fmt.Errorf("sim: unknown Design %d", m.Design)
	}
	if m.DRAMPolicy > dram.MASK {
		return fmt.Errorf("sim: unknown DRAMPolicy %d", m.DRAMPolicy)
	}
	// MASK's components and the prefetcher live at the shared L2 TLB, which
	// Static partitions and PWCache and Ideal do not build; MASK's DRAM
	// scheduler reads its pressure from that TLB.
	for _, f := range []struct {
		field string
		on    bool
	}{
		{"Mask.Tokens", m.Mask.Tokens},
		{"Mask.L2Bypass", m.Mask.L2Bypass},
		{"DRAMPolicy MASK", m.DRAMPolicy == dram.MASK},
		{"TLBPrefetch", m.TLBPrefetch},
	} {
		if f.on && m.Design != DesignSharedTLB {
			return fmt.Errorf("sim: %s requires Design SharedTLB, got Design %v", f.field, m.Design)
		}
	}
	switch {
	case m.DemandPaging && m.Design == DesignIdeal:
		return fmt.Errorf("sim: DemandPaging faults on page walks, which Design Ideal never makes")
	case m.Cores < 1 || m.Cores > maxCores:
		return fmt.Errorf("sim: Cores must be in [1,%d], got %d", maxCores, m.Cores)
	case m.WarpsPerCore < 1:
		return fmt.Errorf("sim: WarpsPerCore must be >= 1, got %d", m.WarpsPerCore)
	case m.L1TLBEntries < 1:
		return fmt.Errorf("sim: L1TLBEntries must be >= 1, got %d", m.L1TLBEntries)
	case m.L2TLBEntries < m.L2TLBWays || m.L2TLBWays < 1:
		return fmt.Errorf("sim: invalid L2 TLB geometry %d entries / %d ways", m.L2TLBEntries, m.L2TLBWays)
	case m.PageSize != pagetable.PageSize4K && m.PageSize != pagetable.PageSize2M:
		return fmt.Errorf("sim: unsupported page size %d", m.PageSize)
	case m.DRAM.Channels < 1 || m.DRAM.BanksPerChannel < 1:
		return fmt.Errorf("sim: invalid DRAM geometry %+v", m.DRAM)
	case m.TimeMuxQuantum < 0:
		return fmt.Errorf("sim: TimeMuxQuantum must be >= 0, got %d", m.TimeMuxQuantum)
	case m.TimeMuxEvict < 0 || m.TimeMuxEvict > 1:
		return fmt.Errorf("sim: TimeMuxEvict must be in [0,1], got %g", m.TimeMuxEvict)
	case m.TokenInitFraction < 0 || m.TokenInitFraction > 1:
		return fmt.Errorf("sim: TokenInitFraction must be in [0,1], got %g", m.TokenInitFraction)
	case m.DemandPaging && m.FaultLatency < 1:
		return fmt.Errorf("sim: DemandPaging needs FaultLatency >= 1, got %d", m.FaultLatency)
	case m.DemandPaging && m.FaultConcurrency < 1:
		return fmt.Errorf("sim: DemandPaging needs FaultConcurrency >= 1, got %d", m.FaultConcurrency)
	}
	return nil
}

// Validate checks the run's own rules: telemetry, the watchdog and
// checkpointing.
func (o RunOptions) Validate() error {
	switch {
	case o.TelemetryEpoch < 0:
		return fmt.Errorf("sim: TelemetryEpoch must be >= 0, got %d", o.TelemetryEpoch)
	case o.TelemetrySink != nil && o.TelemetryEpoch <= 0:
		return fmt.Errorf("sim: TelemetrySink requires TelemetryEpoch > 0")
	case o.WatchdogCheckEvery < 0:
		return fmt.Errorf("sim: WatchdogCheckEvery must be >= 0, got %d", o.WatchdogCheckEvery)
	case o.CheckpointEvery < 0:
		return fmt.Errorf("sim: CheckpointEvery must be >= 0, got %d", o.CheckpointEvery)
	case o.CheckpointEvery > 0 && o.CheckpointDir == "":
		return fmt.Errorf("sim: CheckpointEvery requires CheckpointDir")
	case o.Resume && o.CheckpointDir == "":
		return fmt.Errorf("sim: Resume requires CheckpointDir")
	}
	return nil
}
