package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"masksim/internal/workload"
	"masksim/sim"
)

// A kernel workload times kernelOps Simulator.Run calls: kernelInputs inputs
// (the run's seed and two derived from it), the whole list run twice. How
// long a run takes depends on its seed by a few per cent, so a benchmark run
// reports the median over several inputs; and each input's second run must
// reproduce its first run's statistics, and tells how steady the host is.
const (
	kernelInputs = 3
	kernelOps    = 2 * kernelInputs
)

// kernelBench is a kernel workload: kernelOps Simulator.Run calls of one pair
// under one design, each on a freshly built simulator. Building it is not
// timed (the traced pass's sim.build_ms is): the op is the run.
type kernelBench struct {
	cfg             func() sim.Config
	apps            []string
	cyclesPerSecond float64 // all ops together
	paging          bool    // also runs the demand-paging and trace-format drivers

	cycles int64 // per op
	seed   uint64
}

// saturatedPair saturates the data side: the MASK design with two
// data-intensive apps, where the core-to-L1D retry storm dominates. 36 000
// cycles per second of budget is the issue's 3 x 360 000 in 30 s.
func saturatedPair() *kernelBench {
	return &kernelBench{cfg: sim.MASKConfig, apps: []string{"3DS", "CONS"}, cyclesPerSecond: 36_000}
}

// translationBoundPair saturates the translation side: the SharedTLB baseline
// with two TLB-thrashing apps, cores mostly idle. 160 000 cycles per second
// of budget is the issue's 3 x 1 600 000 in 30 s.
func translationBoundPair() *kernelBench {
	return &kernelBench{cfg: sim.SharedTLBConfig, apps: []string{"MUM", "GUP"}, cyclesPerSecond: 160_000, paging: true}
}

// seededApps builds the app list with seed XOR-ed into each canonical seed
// (seed 0 is what sim.Run would build).
func seededApps(names []string, seed uint64) []workload.App {
	apps := make([]workload.App, len(names))
	for i, n := range names {
		apps[i] = workload.NewApp(i, n)
		apps[i].Seed ^= seed
	}
	return apps
}

// inputSeed derives the seed of a run's i-th input: the run's own seed for
// the first, then a splitmix64 sequence from it.
func inputSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	z := seed + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// warmUp is the CPU-bound part of every workload's set-up: one simulation of
// the workload's first configuration, 40 000 cycles at the contract's
// --seconds, so that setup_s repeats and the process reaches the timed
// section with a grown heap.
func warmUp(z sizing, cfg sim.Config, apps []string) error {
	_, err := sim.Run(context.Background(), cfg, apps, z.cycles(40_000.0/runSeconds))
	return err
}

func (k *kernelBench) newSim(cfg sim.Config, seed uint64) (*sim.Simulator, error) {
	return sim.New(cfg, seededApps(k.apps, seed), sim.EvenSplit(cfg.Cores, len(k.apps)))
}

func (k *kernelBench) setup(e *env) error {
	k.seed = e.seed
	k.cycles = e.size.cycles(k.cyclesPerSecond / kernelOps)
	return warmUp(e.size, k.cfg(), k.apps)
}

func (k *kernelBench) teardown() {}

func (k *kernelBench) run(e *env) error {
	o := e.out
	var shas []string
	var pairs []float64
	for op := 0; op < kernelOps; op++ {
		opSpan := e.tr.begin("op", e.root, op, 0)
		sp := e.tr.begin("sim.New", opSpan, op, 0)
		s, err := k.newSim(k.cfg(), inputSeed(k.seed, op%kernelInputs))
		e.tr.end(sp)
		var res *sim.Results
		var took time.Duration
		if err == nil {
			took = e.timed(func() {
				sp := e.tr.begin("Simulator.Run", opSpan, op, 0)
				res, err = s.Run(context.Background(), k.cycles)
				e.tr.end(sp)
			})
		}
		e.tr.end(opSpan)
		o.ops++
		if err == nil {
			for _, bad := range checkResults(res) {
				err = fmt.Errorf("%s", bad)
			}
		}
		if err != nil {
			o.failed++
			o.fail("op %d: %v", op, err)
			shas = append(shas, "")
			o.opMS = append(o.opMS, 0) // keeps opMS indexed by op; dropped below
			continue
		}
		o.opMS = append(o.opMS, ms(took))
		o.cycles += uint64(res.Cycles)
		o.agg.add(res)
		shas = append(shas, resultsSHA(res))
		if first := op - kernelInputs; first >= 0 && shas[first] != "" {
			if shas[op] != shas[first] {
				o.fail("ops %d and %d ran identical inputs to different results", first, op)
			}
			a, b := o.opMS[first], o.opMS[op]
			pairs = append(pairs, math.Abs(a-b)/((a+b)/2))
		}
	}
	if o.failed > 0 { // a failed op has no latency
		ok := o.opMS[:0]
		for op, v := range o.opMS {
			if shas[op] != "" {
				ok = append(ok, v)
			}
		}
		o.opMS = ok
	}
	o.pairSpread = median(pairs)
	o.sha = sha(strings.Join(shas, "\n"))
	return nil
}

func (k *kernelBench) finish(e *env) error {
	if len(e.out.opMS) == 0 {
		return fmt.Errorf("no op completed: %v", e.out.checks)
	}
	return nil
}

// driverCycles sizes the short runs the engine drivers compare, driverRounds
// how often each comparison is repeated.
func driverCycles(z sizing) int64 { return z.cycles(1_500) }

const driverRounds = 3

// timedRun builds and runs one simulation of the workload's pair under cfg,
// returning its results and the Run call's wall time.
func (k *kernelBench) timedRun(cfg sim.Config, cycles int64) (*sim.Results, float64, error) {
	s, err := k.newSim(cfg, k.seed)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := s.Run(context.Background(), cycles)
	return res, time.Since(t0).Seconds(), err
}

func (k *kernelBench) drivers(e *env) error {
	o := e.out
	cycles := driverCycles(e.size)
	minTotal := time.Duration(e.size.seconds * float64(25*time.Millisecond))

	build, err := timeCalls(minTotal, 5, time.Millisecond, func() error {
		_, err := k.newSim(k.cfg(), k.seed)
		return err
	})
	if err != nil {
		return err
	}
	o.layer["sim.build_ms"] = median(build)

	// A reference run, then the same run with one speed knob flipped, several
	// rounds over: each ratio is the median of its rounds, and every variant
	// must reproduce the reference's simulated statistics.
	variants := []struct {
		metric, name string
		mod          func(*sim.Config)
		inverse      bool // report reference/variant (a speed-up) instead of variant/reference
	}{
		{"engine.shards2_speedup", "Shards=2", func(c *sim.Config) { c.Shards = 2 }, true},
		{"engine.fastforward_off_ratio", "FastForward=false", func(c *sim.Config) { c.FastForward = false }, false},
		{"telemetry.overhead_ratio", "TelemetryEpoch=1000", func(c *sim.Config) { c.TelemetryEpoch = 1000 }, false},
	}
	ratios := make([][]float64, len(variants))
	var refSHA string
	for round := 0; round < driverRounds; round++ {
		ref, refWall, err := k.timedRun(k.cfg(), cycles)
		if err != nil {
			return err
		}
		refSHA = resultsSHA(ref)
		for i, v := range variants {
			cfg := k.cfg()
			v.mod(&cfg)
			res, wall, err := k.timedRun(cfg, cycles)
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			if round == 0 && resultsSHA(res) != refSHA {
				o.fail("%s run differs from the sequential reference", v.name)
			}
			if v.inverse {
				ratios[i] = append(ratios[i], ratio(refWall, wall))
			} else {
				ratios[i] = append(ratios[i], ratio(wall, refWall))
			}
		}
	}
	for i, v := range variants {
		o.layer[v.metric] = median(ratios[i])
	}

	if err := k.checkpointDriver(e, cycles, refSHA, minTotal); err != nil {
		return err
	}
	if !k.paging {
		return nil
	}
	if err := k.pagingDriver(e); err != nil {
		return err
	}
	return traceFormatDriver(e, minTotal)
}

// checkpointDriver takes a mid-run checkpoint of the workload's pair, times
// restoring and re-encoding it, and checks that the restored run finishes
// with the uninterrupted run's statistics.
func (k *kernelBench) checkpointDriver(e *env, cycles int64, refSHA string, minTotal time.Duration) error {
	o := e.out
	if cycles < 2 {
		return nil
	}
	dir := filepath.Join(e.tmp, "ckpt")
	cfg := k.cfg()
	// One checkpoint, just past the middle: a second would not fit the budget.
	cfg.CheckpointDir, cfg.CheckpointEvery = dir, cycles/2+1
	if _, _, err := k.timedRun(cfg, cycles); err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		return fmt.Errorf("want one checkpoint in %s, found %d (%v)", dir, len(files), err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	o.layer["sim.checkpoint_mb"] = float64(len(data)) / 1e6

	// Only the restore itself is timed, not building the simulator it lands on.
	var restore []float64
	var restored *sim.Simulator
	for start := time.Now(); len(restore) < 3 || time.Since(start) < minTotal; {
		s, err := k.newSim(k.cfg(), k.seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := s.RestoreCheckpoint(bytes.NewReader(data)); err != nil {
			return err
		}
		restore = append(restore, ms(time.Since(t0)))
		restored = s
	}
	o.layer["sim.checkpoint_restore_ms"] = median(restore)
	encode, err := timeCalls(minTotal, 3, time.Millisecond, func() error { return restored.Checkpoint(io.Discard) })
	if err != nil {
		return err
	}
	o.layer["sim.checkpoint_encode_ms"] = median(encode)
	res, err := restored.Run(context.Background(), cycles)
	if err != nil {
		return err
	}
	if resultsSHA(res) != refSHA {
		o.fail("run restored from a mid-run checkpoint differs from the uninterrupted run")
	}
	return nil
}

// pagingDriver runs the demand-paging cold start fast-forward exists for.
func (k *kernelBench) pagingDriver(e *env) error {
	cfg := k.cfg()
	cfg.DemandPaging = true
	cycles := e.size.cycles(100_000)
	res, wall, err := k.timedRun(cfg, cycles)
	if err != nil {
		return err
	}
	for _, bad := range checkResults(res) {
		e.out.fail("paging: %s", bad)
	}
	e.out.layer["engine.paging_skip_fraction"] = ratio(float64(res.CyclesSkipped), float64(res.Cycles))
	e.out.layer["engine.paging_kcycles_per_s"] = ratio(float64(res.Cycles)/1000, wall)
	return nil
}

// traceFormatDriver measures the trace I/O edge on a trace synthesised from
// the seed: text parse, binary decode and binary encode throughput.
func traceFormatDriver(e *env, minTotal time.Duration) error {
	rng := rand.New(rand.NewSource(int64(e.seed)))
	ts := &workload.TraceSet{Name: "synthetic"}
	entries := int(e.size.cycles(100))
	for w := 0; w < 64; w++ {
		warp := make([]workload.TraceEntry, entries)
		addr := uint64(2)<<32 + uint64(w)<<24
		for i := range warp {
			addr += uint64(rng.Intn(1 << 14))
			warp[i] = workload.TraceEntry{Addrs: []uint64{addr, addr + 4096}, Write: rng.Intn(4) == 0, ComputeGap: rng.Intn(16)}
		}
		ts.Warps = append(ts.Warps, warp)
	}
	var text, mtb bytes.Buffer
	if err := ts.WriteText(&text); err != nil {
		return err
	}
	encode, err := timeCalls(minTotal, 3, time.Second, func() error {
		mtb.Reset()
		return ts.EncodeMTB(&mtb)
	})
	if err != nil {
		return err
	}
	load := func(data []byte) func() error {
		return func() error {
			got, err := workload.LoadTrace("synthetic", bytes.NewReader(data))
			if err == nil && len(got.Warps) != len(ts.Warps) {
				err = fmt.Errorf("trace round trip lost warps: %d of %d", len(got.Warps), len(ts.Warps))
			}
			return err
		}
	}
	parse, err := timeCalls(minTotal, 3, time.Second, load(text.Bytes()))
	if err != nil {
		return err
	}
	decode, err := timeCalls(minTotal, 3, time.Second, load(mtb.Bytes()))
	if err != nil {
		return err
	}
	e.out.layer["workload.text_parse_mb_per_s"] = ratio(float64(text.Len())/1e6, median(parse))
	e.out.layer["workload.mtb_decode_mb_per_s"] = ratio(float64(mtb.Len())/1e6, median(decode))
	e.out.layer["workload.mtb_encode_mb_per_s"] = ratio(float64(mtb.Len())/1e6, median(encode))
	return nil
}
