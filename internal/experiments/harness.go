// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the masksim substrate. Each experiment is a function
// returning printable Tables; cmd/maskexp dispatches on experiment IDs and
// bench_test.go wraps each one in a benchmark.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"masksim/internal/engine"
	"masksim/internal/metrics"
	"masksim/internal/simcache"
	"masksim/internal/workload"
	"masksim/sim"
)

// Harness runs batches of simulations over a content-addressed result cache
// and a supervised worker pool (independent Simulator instances share no
// state). Every Run/RunAlone is memoized by its (config, apps, cycles)
// fingerprint, so a campaign — or several experiments sharing one Harness —
// executes each distinct simulation exactly once and shares the completed
// Results read-only. Workers recover panics, transient failures are retried
// once, and every outcome is counted in Stats; a single bad cell degrades
// the campaign instead of crashing it.
type Harness struct {
	// Cycles is the simulated length of shared runs; AloneCycles of alone
	// runs (defaults to Cycles).
	Cycles      int64
	AloneCycles int64
	// Workers bounds concurrently executing simulations across the whole
	// harness (all experiments sharing it), enforced by a global semaphore;
	// 0 means GOMAXPROCS. Negative is rejected by parallel.
	Workers int

	// Ctx supervises every run the harness starts (nil means Background):
	// cancel it to stop a campaign early.
	Ctx context.Context
	// RunTimeout, when positive, bounds each individual run's wall-clock
	// time via context.WithTimeout (queueing for a worker slot excluded).
	RunTimeout time.Duration

	// Cache memoizes simulation results by fingerprint. NewHarness installs
	// an in-memory cache; point it at simcache.New(dir) for on-disk
	// persistence, or set nil to disable memoization entirely (every request
	// then simulates afresh).
	Cache *simcache.Cache

	// CheckpointDir, when non-empty, makes every supervised run write
	// periodic mid-run checkpoints there and resume from the newest valid one
	// before simulating. A worker killed or panicked mid-cell retries from
	// its last checkpoint instead of cycle zero, and a whole campaign
	// restarted after a kill picks its in-flight cells back up mid-run
	// (checkpoint files are fingerprint-keyed, so cells never collide).
	// Results are bit-identical either way, so resumed cells share cache
	// entries with clean ones.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in simulated cycles (only
	// meaningful with CheckpointDir; 0 disables periodic checkpoints but
	// still resumes from — and crash-dumps to — CheckpointDir).
	CheckpointEvery int64

	// Slots, when non-nil, replaces the harness's own Workers semaphore with
	// an external execution-slot source, so several harnesses — maskd builds
	// one per job — draw from a single machine-wide execution budget (with
	// whatever fairness the Acquirer implements). Workers then only bounds
	// batch submission parallelism.
	Slots Acquirer

	// recycler is where every simulation's simulator comes from and goes back
	// to after a clean run, so a worker's next cell is built over its last
	// one's small buffers instead of from nothing.
	recycler sim.Recycler

	semOnce sync.Once
	sem     chan struct{}

	mu       sync.Mutex
	stats    metrics.RunStats
	failures []*RunError
}

// NewHarness returns a Harness with the given shared-run length and a fresh
// in-memory result cache.
func NewHarness(cycles int64) *Harness {
	return &Harness{Cycles: cycles, AloneCycles: cycles, Cache: simcache.New("")}
}

func (h *Harness) workers() int {
	if h.Workers > 0 {
		return h.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (h *Harness) ctx() context.Context {
	if h.Ctx != nil {
		return h.Ctx
	}
	return context.Background()
}

// RunError wraps a failed supervised run with its label (what was being
// simulated) and how many attempts were made.
type RunError struct {
	Label    string
	Attempts int
	Err      error
}

// Error summarizes the failure.
func (e *RunError) Error() string {
	return fmt.Sprintf("%s failed after %d attempt(s): %v", e.Label, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// panicError marks a recovered worker panic; panics are treated as
// transient (retried once) since they may stem from a fault-injected or
// otherwise unlucky cell.
type panicError struct {
	value any
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// isTransient reports whether a failed attempt is worth retrying: panics
// are; deterministic aborts (watchdog deadlock, context expiry, validation
// errors) are not.
func isTransient(err error) bool {
	var pe *panicError
	return errors.As(err, &pe)
}

// Acquirer grants execution slots to supervised runs. Acquire blocks until a
// slot is granted or ctx is done; every successful Acquire must be paired
// with exactly one Release. maskd's fair limiter implements this to spread
// one machine-wide slot pool across tenants.
type Acquirer interface {
	Acquire(ctx context.Context) error
	Release()
}

// acquire takes one global execution slot, so the total number of
// simulations running at once stays within Workers (or the shared Slots
// budget) no matter how many experiments and batches submit work
// concurrently.
func (h *Harness) acquire(ctx context.Context) error {
	if h.Slots != nil {
		return h.Slots.Acquire(ctx)
	}
	h.semOnce.Do(func() { h.sem = make(chan struct{}, h.workers()) })
	select {
	case h.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (h *Harness) release() {
	if h.Slots != nil {
		h.Slots.Release()
		return
	}
	<-h.sem
}

// attempt runs f once under the harness context, a global execution slot and
// the per-run timeout, converting panics into errors. The timeout clock
// starts after slot acquisition so it measures the run, not the queue.
func (h *Harness) attempt(f func(ctx context.Context) (*sim.Results, error)) (res *sim.Results, err error) {
	ctx := h.ctx()
	if err := h.acquire(ctx); err != nil {
		return nil, err
	}
	defer h.release()
	if h.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.RunTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &panicError{value: r}
		}
	}()
	return f(ctx)
}

// supervised runs f with panic isolation and a single retry of transient
// failures, recording the outcome in the campaign stats. On failure it
// returns the partial Results (when the run produced any) and a *RunError.
func (h *Harness) supervised(label string, f func(ctx context.Context) (*sim.Results, error)) (*sim.Results, error) {
	h.mu.Lock()
	h.stats.Attempted++
	h.mu.Unlock()

	attempts := 1
	res, err := h.attempt(f)
	if err != nil && isTransient(err) && h.ctx().Err() == nil {
		h.mu.Lock()
		h.stats.Retried++
		h.mu.Unlock()
		attempts++
		res, err = h.attempt(f)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		h.stats.Completed++
		if res != nil {
			h.stats.CyclesSimulated += uint64(res.Cycles)
			h.stats.CyclesTicked += uint64(res.CyclesTicked)
		}
		return res, nil
	}
	h.stats.Failed++
	var de *engine.DeadlockError
	if errors.As(err, &de) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		h.stats.Aborted++
	}
	re := &RunError{Label: label, Attempts: attempts, Err: err}
	h.failures = append(h.failures, re)
	return res, re
}

// runConfig overlays the harness checkpoint policy onto one run's config.
// With no CheckpointDir it is the identity; otherwise the run checkpoints
// periodically and resumes from existing state, which makes both retry paths
// (same-process retry after a panic, fresh-process retry after a kill)
// continue mid-run. The policy is made of RunOptions, which never reach
// sim.Config.Key — results are bit-identical regardless — so the overlay
// never changes a run's cache key or checkpoint fingerprint.
func (h *Harness) runConfig(cfg sim.Config) sim.Config {
	if h.CheckpointDir == "" {
		return cfg
	}
	cfg.CheckpointDir = h.CheckpointDir
	if h.CheckpointEvery > 0 {
		cfg.CheckpointEvery = h.CheckpointEvery
	}
	cfg.Resume = true
	return cfg
}

// runPrepared executes one prepared simulator and folds its checkpoint
// accounting into the campaign stats — even for aborted runs, whose
// checkpoints (and rejected resume candidates) are part of the campaign
// story. A completed run's periodic checkpoints are deleted: they exist only
// to make the run survivable, and the result cache now owns its outcome; its
// simulator goes back to the recycler. One that panicked, deadlocked or ran
// out of time never does: this function does not return normally, or returns
// an error, and the simulator is left to the collector.
func (h *Harness) runPrepared(ctx context.Context, s *sim.Simulator, cycles int64) (*sim.Results, error) {
	res, err := s.Run(ctx, cycles)
	cs := s.CheckpointStats()
	h.mu.Lock()
	h.stats.CheckpointsTaken += uint64(cs.Taken)
	h.stats.CheckpointsRestored += uint64(cs.Restored)
	h.stats.CheckpointsRejected += uint64(cs.Rejected)
	h.mu.Unlock()
	if err == nil {
		s.RemoveCheckpoints()
		h.recycler.Put(s)
	}
	return res, err
}

// RunInfo reports how a memoized request was satisfied.
type RunInfo struct {
	// Executed is true when this request became the executing leader — a
	// cache miss that actually simulated. False means the result came from a
	// completed entry, an in-flight execution it joined, or the disk/remote
	// layers.
	Executed bool
}

// Run simulates the named benchmarks under cfg for h.Cycles, supervised and
// memoized: a second request for the same (config, apps, cycles) fingerprint
// — from any experiment sharing this Harness — returns the first run's
// Results without simulating. The returned Results are shared; treat them as
// read-only.
func (h *Harness) Run(cfg sim.Config, names []string) (*sim.Results, error) {
	res, _, err := h.RunEx(cfg, names)
	return res, err
}

// RunEx is Run plus a RunInfo telling whether this request executed (maskd
// uses it to report per-cell cache attribution).
func (h *Harness) RunEx(cfg sim.Config, names []string) (*sim.Results, RunInfo, error) {
	label := fmt.Sprintf("run(%s, %v)", cfg.Name, names)
	exec := func() (*sim.Results, error) {
		return h.supervised(label, func(ctx context.Context) (*sim.Results, error) {
			s, err := h.recycler.Prepare(h.runConfig(cfg), names)
			if err != nil {
				return nil, err
			}
			return h.runPrepared(ctx, s, h.Cycles)
		})
	}
	if h.Cache == nil || !simcache.Cacheable(cfg) {
		res, err := exec()
		return res, RunInfo{Executed: true}, err
	}
	h.countCacheRequest()
	res, executed, err := h.Cache.DoInfo(simcache.RunKey(cfg, names, h.Cycles), exec)
	return res, RunInfo{Executed: executed}, err
}

// RunAlone measures one app with uncontended resources for h.AloneCycles,
// supervised and memoized like Run.
func (h *Harness) RunAlone(cfg sim.Config, app string, cores int) (*sim.Results, error) {
	res, _, err := h.RunAloneEx(cfg, app, cores)
	return res, err
}

// RunAloneEx is RunAlone plus a RunInfo (see RunEx).
func (h *Harness) RunAloneEx(cfg sim.Config, app string, cores int) (*sim.Results, RunInfo, error) {
	label := fmt.Sprintf("alone(%s, %s, %d cores)", cfg.Name, app, cores)
	exec := func() (*sim.Results, error) {
		return h.supervised(label, func(ctx context.Context) (*sim.Results, error) {
			s, err := h.recycler.PrepareAlone(h.runConfig(cfg), app, cores)
			if err != nil {
				return nil, err
			}
			return h.runPrepared(ctx, s, h.AloneCycles)
		})
	}
	if h.Cache == nil || !simcache.Cacheable(cfg) {
		res, err := exec()
		return res, RunInfo{Executed: true}, err
	}
	h.countCacheRequest()
	res, executed, err := h.Cache.DoInfo(simcache.AloneKey(cfg, app, cores, h.AloneCycles), exec)
	return res, RunInfo{Executed: executed}, err
}

// countCacheRequest counts one memoized lookup in the harness-local stats.
// The cache's own Stats counts lookups too, but a Cache may be shared across
// harnesses (maskd), so the per-campaign number must be kept here.
func (h *Harness) countCacheRequest() {
	h.mu.Lock()
	h.stats.CacheRequests++
	h.mu.Unlock()
}

// Stats returns a snapshot of the campaign's run accounting, including the
// result-cache counters.
func (h *Harness) Stats() metrics.RunStats {
	h.mu.Lock()
	s := h.stats
	h.mu.Unlock()
	if h.Cache != nil {
		cs := h.Cache.Stats()
		s.CacheHits = cs.Hits
		s.CacheInflightWaits = cs.InflightWaits
		s.CacheMisses = cs.Misses
		s.DiskHits = cs.DiskHits
		s.RemoteHits = cs.RemoteHits
		s.RemotePuts = cs.RemotePuts
		s.RemoteErrors = cs.RemoteErrors
	}
	return s
}

// Failures returns the recorded per-run failures, in occurrence order.
func (h *Harness) Failures() []*RunError {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*RunError, len(h.failures))
	copy(out, h.failures)
	return out
}

// parallel runs fn(i) for i in [0,n) on the worker pool. Worker panics are
// recovered into errors; the first error by index is returned after all
// items finish, so partial progress is never thrown away mid-batch.
func (h *Harness) parallel(n int, fn func(i int) error) error {
	if h.Workers < 0 {
		return fmt.Errorf("experiments: Workers must be >= 0, got %d", h.Workers)
	}
	errs := make([]error, n)
	safe := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &panicError{value: r}
			}
		}()
		errs[i] = fn(i)
	}
	w := h.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			safe(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					safe(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AloneIPC returns the paper's IPC_alone for app on cores cores of the
// aloneCfg platform (sim.AlonePlatform). The underlying run is memoized in the
// result cache — including failures, so a broken alone run is not retried for
// every dependent cell.
func (h *Harness) AloneIPC(aloneCfg sim.Config, app string, cores int) (float64, error) {
	res, err := h.RunAlone(sim.AlonePlatform(aloneCfg), app, cores)
	if err != nil {
		return 0, err
	}
	return res.Apps[0].IPC, nil
}

// WarmAlone precomputes alone IPCs for every app of the given pairs in
// parallel, at both core counts of the pair split — EvenSplit is asymmetric
// on odd core counts, so app B's alone run at split[1] cores is a distinct
// simulation that would otherwise execute serially inside the matrix pass.
// Individual failures are cached and surface later through the cells that
// need them; only campaign cancellation is returned.
func (h *Harness) WarmAlone(aloneCfg sim.Config, pairs []workload.Pair) error {
	seen := map[string]bool{}
	var apps []string
	for _, p := range pairs {
		for _, a := range []string{p.A, p.B} {
			if !seen[a] {
				seen[a] = true
				apps = append(apps, a)
			}
		}
	}
	sort.Strings(apps)
	split := sim.EvenSplit(aloneCfg.Cores, 2)
	coreCounts := []int{split[0]}
	if split[1] != split[0] {
		coreCounts = append(coreCounts, split[1])
	}
	if err := h.parallel(len(apps)*len(coreCounts), func(i int) error {
		h.AloneIPC(aloneCfg, apps[i/len(coreCounts)], coreCounts[i%len(coreCounts)])
		return nil
	}); err != nil {
		return err
	}
	return h.ctx().Err()
}

// BatchJob describes one simulation for RunBatch: a shared run of Names
// under Cfg, or — when Alone is non-empty — an uncontended run of app Alone
// on Cores cores.
type BatchJob struct {
	Cfg   sim.Config
	Names []string
	Alone string
	Cores int
}

// RunBatch executes the jobs on the worker pool and returns their Results in
// job order, so experiments submit whole sweeps at once instead of looping
// over h.Run sequentially. All jobs run to completion; the returned error is
// the first failed job's (by index), matching what a sequential loop would
// have returned.
func (h *Harness) RunBatch(jobs []BatchJob) ([]*sim.Results, error) {
	results := make([]*sim.Results, len(jobs))
	err := h.parallel(len(jobs), func(i int) error {
		var e error
		if jobs[i].Alone != "" {
			results[i], e = h.RunAlone(jobs[i].Cfg, jobs[i].Alone, jobs[i].Cores)
		} else {
			results[i], e = h.Run(jobs[i].Cfg, jobs[i].Names)
		}
		return e
	})
	return results, err
}

// Cell is one (pair, config) measurement. When Err is non-nil the cell
// failed: Metrics is zero and Results (if non-nil) holds only the partial
// statistics collected before the abort.
type Cell struct {
	Pair    workload.Pair
	Config  string
	Results *sim.Results
	Metrics sim.PairMetrics
	// Err records why the cell failed (nil for healthy cells).
	Err error
	// Attempts is the number of times the cell's run was tried.
	Attempts int
}

// OK reports whether the cell holds a usable measurement.
func (c *Cell) OK() bool { return c != nil && c.Err == nil }

// Matrix is the (pair × config) result grid underlying Figures 11–15.
// Failed cells stay in the grid with Err set; the Mean* aggregates skip
// them, so campaign means cover the surviving cells.
type Matrix struct {
	Pairs   []workload.Pair
	Configs []string
	Cells   map[string]map[string]*Cell // pair name -> config name -> cell
}

// Cell returns the cell for (pair, config).
func (m *Matrix) Cell(pair workload.Pair, config string) *Cell {
	return m.Cells[pair.Name()][config]
}

// OK reports whether every listed config has a usable cell for pair (all
// matrix configs when none are listed).
func (m *Matrix) OK(pair workload.Pair, configs ...string) bool {
	if len(configs) == 0 {
		configs = m.Configs
	}
	for _, c := range configs {
		if !m.Cell(pair, c).OK() {
			return false
		}
	}
	return true
}

// Failed returns the failed cells in deterministic (pair, config) order.
func (m *Matrix) Failed() []*Cell {
	var out []*Cell
	for _, p := range m.Pairs {
		for _, c := range m.Configs {
			if cell := m.Cell(p, c); cell != nil && cell.Err != nil {
				out = append(out, cell)
			}
		}
	}
	return out
}

// MeanWS returns the arithmetic-mean weighted speedup for config over the
// surviving pairs (all pairs when subset is nil).
func (m *Matrix) MeanWS(config string, subset []workload.Pair) float64 {
	if subset == nil {
		subset = m.Pairs
	}
	var xs []float64
	for _, p := range subset {
		if c := m.Cell(p, config); c.OK() {
			xs = append(xs, c.Metrics.WeightedSpeedup)
		}
	}
	return metrics.Mean(xs)
}

// MeanUnfairness is MeanWS for the maximum-slowdown metric.
func (m *Matrix) MeanUnfairness(config string, subset []workload.Pair) float64 {
	if subset == nil {
		subset = m.Pairs
	}
	var xs []float64
	for _, p := range subset {
		if c := m.Cell(p, config); c.OK() {
			xs = append(xs, c.Metrics.Unfairness)
		}
	}
	return metrics.Mean(xs)
}

// MeanIPCThroughput averages the summed shared IPC for config over pairs.
func (m *Matrix) MeanIPCThroughput(config string, subset []workload.Pair) float64 {
	if subset == nil {
		subset = m.Pairs
	}
	var xs []float64
	for _, p := range subset {
		if c := m.Cell(p, config); c.OK() {
			xs = append(xs, c.Metrics.IPCThroughput)
		}
	}
	return metrics.Mean(xs)
}

// RunMatrix simulates every (pair, config) combination, fail-soft: a cell
// whose run panics, deadlocks or times out is recorded with Cell.Err and the
// rest of the campaign proceeds. Alone IPCs come from the SharedTLB variant
// of aloneCfg. The returned error is non-nil only when the whole campaign
// was canceled through h.Ctx.
func (h *Harness) RunMatrix(aloneCfg sim.Config, configs []sim.Config, pairs []workload.Pair) (*Matrix, error) {
	if err := h.WarmAlone(aloneCfg, pairs); err != nil {
		return nil, err
	}

	m := &Matrix{Pairs: pairs, Cells: make(map[string]map[string]*Cell)}
	for _, c := range configs {
		m.Configs = append(m.Configs, c.Name)
	}
	for _, p := range pairs {
		m.Cells[p.Name()] = make(map[string]*Cell)
	}

	type job struct {
		pair workload.Pair
		cfg  sim.Config
	}
	var jobs []job
	for _, p := range pairs {
		for _, c := range configs {
			jobs = append(jobs, job{p, c})
		}
	}
	var mu sync.Mutex
	if err := h.parallel(len(jobs), func(i int) error {
		j := jobs[i]
		cell := &Cell{Pair: j.pair, Config: j.cfg.Name, Attempts: 1}
		res, err := h.Run(j.cfg, []string{j.pair.A, j.pair.B})
		cell.Results = res
		var re *RunError
		if errors.As(err, &re) {
			cell.Attempts = re.Attempts
		}
		if err == nil {
			split := sim.EvenSplit(j.cfg.Cores, 2)
			var alone [2]float64
			var aerr error
			for k, app := range []string{j.pair.A, j.pair.B} {
				alone[k], aerr = h.AloneIPC(aloneCfg, app, split[k])
				if aerr != nil {
					err = fmt.Errorf("alone IPC for %s unavailable: %w", app, aerr)
					break
				}
			}
			if err == nil {
				cell.Metrics = res.Metrics(alone[:])
			}
		}
		cell.Err = err
		mu.Lock()
		m.Cells[j.pair.Name()][j.cfg.Name] = cell
		mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}
	return m, h.ctx().Err()
}
