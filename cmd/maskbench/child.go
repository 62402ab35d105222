package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// bench is one workload as the child process drives it. Each step is a
// separate method so that the harness, not the workload, decides what happens
// around the timed section.
type bench interface {
	// setup prepares inputs, temp dirs and servers (untimed). The child sets
	// up several times to report a median; teardown undoes one setup.
	setup(e *env) error
	teardown()
	// run does the fixed work, sized from e.size. What counts as the timed
	// section it brackets itself with e.timed.
	run(e *env) error
	// finish runs after the clock stopped: output checks, and folding what
	// run returned into e.out.
	finish(e *env) error
	// drivers runs the workload's layer drivers (traced pass only) and
	// stores their medians in e.out.layer.
	drivers(e *env) error
}

// env is what a workload sees of the run.
type env struct {
	seed uint64
	size sizing
	tmp  string  // private scratch directory inside the checkout
	tr   *tracer // nil in the untraced pass
	root int     // the span of the whole run call, parent of the workload's own
	out  *outcome

	// The timed section's cost, summed over the e.timed brackets.
	wall, cpu float64
	mallocs   uint64
}

// timed runs f as part of the timed section and returns how long it took.
func (e *env) timed(f func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	f()
	took := time.Since(t0)
	e.wall += took.Seconds()
	e.cpu += cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	e.mallocs += m1.Mallocs - m0.Mallocs
	return took
}

// outcome is what a workload reports back.
type outcome struct {
	ops, failed int
	opMS        []float64 // op latencies: what op_p50_ms is the median of
	pairSpread  float64   // median |a-b|/mean over pairs of identical ops, where the workload has such pairs
	cycles      uint64    // simulated cycles actually executed in the timed section
	agg         counters  // simulated statistics of the executed runs
	sha         string    // results_sha
	layer       map[string]float64
	samples     map[string]int // sample counts of the workload's own medians and percentiles
	checks      []string       // failed output checks
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// row is one workload's measurements from one pass, as the child prints it.
type row struct {
	Workload   string         `json:"workload"`
	Pass       string         `json:"pass"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Ops        int            `json:"ops"`
	OpsFailed  int            `json:"ops_failed"`
	Samples    map[string]int `json:"samples"`
	OpMS       []float64      `json:"op_ms,omitempty"` // each op, where there are few
	PairSpread float64        `json:"pair_spread"`
	ResultsSHA string         `json:"results_sha"`
	Checks     []string       `json:"failed_checks"`
	// Metrics holds every metric by its BENCHMARK.json name.
	Metrics   map[string]float64 `json:"metrics"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func newBench(name string) (bench, error) {
	switch name {
	case "saturated-pair":
		return saturatedPair(), nil
	case "translation-bound-pair":
		return translationBoundPair(), nil
	case "campaign-sweep":
		return &campaignBench{}, nil
	case "service-cold-warm":
		return &serviceBench{}, nil
	}
	return nil, fmt.Errorf("maskbench: unknown workload %q", name)
}

// setupRepeats is how often the child sets up: setup_s is the median.
const setupRepeats = 3

// runPass measures one workload once in this process. traced selects the
// pass that also profiles, records spans and runs the layer drivers.
func runPass(name string, seed uint64, seconds float64, traced bool, traceOut string) (*row, error) {
	b, err := newBench(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "maskbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: seed, size: sizing{seconds}, out: &outcome{layer: map[string]float64{}, samples: map[string]int{}}}
	if traced {
		e.tr = newTracer()
	}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			b.teardown()
		}
		e.tmp = filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(e.tmp, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := b.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.teardown()

	// Start every timed section from the same heap state.
	runtime.GC()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	e.root = e.tr.begin(name, -1, -1, 0)
	runErr := b.run(e)
	e.tr.end(e.root)
	if traced {
		pprof.StopCPUProfile()
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", name, runErr)
	}
	if err := b.finish(e); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	o := e.out
	kcycles := float64(o.cycles) / 1000
	r := &row{
		Workload: name, Pass: "untraced", Seed: seed, Seconds: seconds,
		Ops: o.ops, OpsFailed: o.failed, ResultsSHA: o.sha,
		Samples:    map[string]int{"setup_s": len(setups), "op_p50_ms": len(o.opMS)},
		PairSpread: o.pairSpread,
		Metrics: map[string]float64{
			"setup_s":           median(setups),
			"wall_s":            e.wall,
			"cpu_s":             e.cpu,
			"sim_kcycles_per_s": ratio(kcycles, e.wall),
			"op_p50_ms":         median(o.opMS),
			"allocs_per_kcycle": ratio(float64(e.mallocs), kcycles),
		},
	}
	if len(o.opMS) <= 16 {
		r.OpMS = o.opMS
	}
	for k, v := range o.agg.metrics(e.cpu) {
		r.Metrics[k] = v
	}
	for k, n := range o.samples {
		r.Samples[k] = n
	}

	if traced {
		r.Pass = "traced"
		fold, err := foldProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		shares, err := cpuShares(fold)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for k, v := range shares {
			r.Metrics[k] = v
		}
		if err := b.drivers(e); err != nil {
			return nil, fmt.Errorf("%s: drivers: %w", name, err)
		}
		if traceOut != "" {
			other := map[string]any{"profile_fold_ns": fold.ByFunc, "cpu_shares": shares, "span_self_ms": e.tr.selfMS()}
			if err := e.tr.writeChrome(traceOut, other); err != nil {
				return nil, err
			}
			r.TraceFile = traceOut
		}
	}
	// Last, what finish and drivers may both have added to: the workload's
	// own layer metrics and the failed checks.
	for k, v := range o.layer {
		r.Metrics[k] = v
	}
	r.Checks = o.checks
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	return r, nil
}
