package sim

import (
	"context"
	"fmt"

	"masksim/internal/dram"
	"masksim/internal/metrics"
	"masksim/internal/workload"
)

// EvenSplit divides cores evenly across n apps (remainder to the first
// apps). The paper's oracle searches all static splits; this model uses
// the even split only.
func EvenSplit(cores, n int) []int {
	out := make([]int, n)
	base := cores / n
	rem := cores % n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Run builds a simulator for the named benchmarks (evenly splitting cores)
// and runs it for the given cycles under ctx (see Simulator.Run for the
// supervision semantics; on abort both partial Results and the error are
// returned).
func Run(ctx context.Context, cfg Config, names []string, cycles int64) (*Results, error) {
	s, err := Prepare(cfg, names)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, cycles)
}

// Prepare builds the simulator Run would use without running it, for callers
// that need a handle on the instance — checkpoint control, resume after a
// killed worker, fingerprint inspection.
func Prepare(cfg Config, names []string) (*Simulator, error) {
	return new(Recycler).Prepare(cfg, names)
}

// PrepareAlone builds the simulator RunAlone would use without running it.
func PrepareAlone(cfg Config, name string, cores int) (*Simulator, error) {
	return new(Recycler).PrepareAlone(cfg, name, cores)
}

// Prepare is sim.Prepare over a recycled simulator (see Recycler.New).
func (r *Recycler) Prepare(cfg Config, names []string) (*Simulator, error) {
	apps := make([]workload.App, len(names))
	for i, n := range names {
		if _, err := workload.ByName(n); err != nil {
			return nil, err
		}
		apps[i] = workload.NewApp(i, n)
	}
	return r.New(cfg, apps, EvenSplit(cfg.Cores, len(apps)))
}

// PrepareAlone is sim.PrepareAlone over a recycled simulator.
func (r *Recycler) PrepareAlone(cfg Config, name string, cores int) (*Simulator, error) {
	if cores < 1 || cores > cfg.Cores {
		return nil, fmt.Errorf("sim: invalid alone core count %d", cores)
	}
	// Alone runs never partition resources.
	if cfg.Design == DesignStatic {
		cfg.Design = DesignSharedTLB
	}
	return r.New(cfg, []workload.App{workload.NewApp(0, name)}, []int{cores})
}

// AlonePlatform returns the platform the paper measures IPC_alone on for a
// shared run under cfg (§6): the same machine under the SharedTLB design with
// no MASK mechanism. MASK's DRAM scheduler falls back to the baseline FR-FCFS;
// FCFS, a property of the platform, stays.
func AlonePlatform(cfg Config) Config {
	cfg.Design = DesignSharedTLB
	cfg.Mask = Mechanisms{}
	if cfg.DRAMPolicy == dram.MASK {
		cfg.DRAMPolicy = dram.FRFCFS
	}
	return cfg
}

// RunAlone measures one app running by itself on cores cores with the whole
// uncontended memory system — the paper's IPC_alone condition ("runs on the
// same number of GPU cores, but does not share GPU resources", §6).
func RunAlone(ctx context.Context, cfg Config, name string, cores int, cycles int64) (*Results, error) {
	s, err := PrepareAlone(cfg, name, cores)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, cycles)
}

// PairMetrics bundles the paper's three headline metrics for one shared run.
type PairMetrics struct {
	WeightedSpeedup float64
	IPCThroughput   float64
	Unfairness      float64 // maximum slowdown
}

// Metrics computes the paper's metrics for a shared run given the matching
// alone IPCs (in app order).
func (r *Results) Metrics(aloneIPC []float64) PairMetrics {
	shared := r.IPCs()
	return PairMetrics{
		WeightedSpeedup: metrics.WeightedSpeedup(shared, aloneIPC),
		IPCThroughput:   metrics.IPCThroughput(shared),
		Unfairness:      metrics.MaxSlowdown(shared, aloneIPC),
	}
}
