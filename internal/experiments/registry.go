package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"masksim/internal/metrics"
	"masksim/internal/simcache"
)

// registration maps experiment IDs to their implementations. Each experiment
// receives a pre-sized Harness and the -full flag, and returns its tables or
// an error (campaign-level failures; individual bad cells are recorded in
// the harness stats instead).
type experiment struct {
	id   string
	desc string
	run  func(h *Harness, full bool) ([]*Table, error)
}

var registry = map[string]experiment{}

func register(id, desc string, run func(h *Harness, full bool) ([]*Table, error)) {
	registry[id] = experiment{id: id, desc: desc, run: run}
}

// one adapts a single-table experiment to the registry signature.
func one(f func(h *Harness, full bool) (*Table, error)) func(*Harness, bool) ([]*Table, error) {
	return func(h *Harness, full bool) ([]*Table, error) {
		t, err := f(h, full)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// IDs lists registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description for id.
func Describe(id string) string {
	return registry[id].desc
}

// Options configures one supervised experiment invocation.
type Options struct {
	Cycles  int64
	Full    bool
	Workers int
	// Ctx cancels the campaign (nil means Background).
	Ctx context.Context
	// RunTimeout bounds each individual simulation's wall-clock time.
	RunTimeout time.Duration
	// CacheDir, when non-empty, persists completed simulation results there
	// (fingerprint-named JSON entries) and consults them before simulating,
	// so an interrupted campaign resumes without redoing finished cells.
	CacheDir string
	// CheckpointDir, when non-empty, writes periodic mid-run checkpoints
	// there and resumes interrupted cells from them, so a killed campaign
	// loses at most CheckpointEvery cycles of any in-flight simulation.
	// Composes with CacheDir: finished cells come from the result cache,
	// in-flight ones from their checkpoints.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in simulated cycles.
	CheckpointEvery int64
	// Remote, when non-nil, layers a shared content-addressed store behind
	// the result cache: misses consult it before simulating and completed
	// entries are published back (maskexp -remote against a maskd server).
	Remote simcache.RemoteStore
	// Cache, when non-nil, replaces the harness's own result cache with a
	// shared one, so several campaigns — maskd builds one harness per job —
	// dedupe machine-wide. Overrides CacheDir and Remote, which the owner of
	// the shared cache configures once.
	Cache *simcache.Cache
	// Slots, when non-nil, replaces the harness's Workers semaphore with an
	// external execution-slot source (maskd's fair per-tenant limiter).
	Slots Acquirer
}

// newHarness builds the supervised, cache-backed harness for opt.
func newHarness(opt Options) *Harness {
	h := NewHarness(opt.Cycles)
	h.Workers = opt.Workers
	h.Ctx = opt.Ctx
	h.RunTimeout = opt.RunTimeout
	switch {
	case opt.Cache != nil:
		h.Cache = opt.Cache
	case opt.CacheDir != "" || opt.Remote != nil:
		h.Cache = simcache.New(opt.CacheDir)
		if opt.Remote != nil {
			h.Cache.SetRemote(opt.Remote)
		}
	}
	h.CheckpointDir = opt.CheckpointDir
	h.CheckpointEvery = opt.CheckpointEvery
	h.Slots = opt.Slots
	return h
}

// Report is the outcome of one experiment: its tables plus — when produced
// by RunReport's per-experiment harness — the run accounting and recorded
// failures. Campaign reports leave Stats/Failures zero: the shared harness
// accounts at the campaign level (CampaignReport.Stats).
type Report struct {
	ID       string
	Tables   []*Table
	Stats    metrics.RunStats
	Failures []*RunError
	// Err is the experiment-level failure, if any (campaign use).
	Err error
}

// RunReport executes one experiment by ID over its own harness and cache.
// The Report is returned even when err is non-nil, carrying whatever stats
// and failures accumulated before the error.
func RunReport(id string, opt Options) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	h := newHarness(opt)
	tables, err := e.run(h, opt.Full)
	return &Report{ID: id, Tables: tables, Stats: h.Stats(), Failures: h.Failures(), Err: err}, err
}

// CampaignReport is the outcome of a multi-experiment campaign over one
// shared harness and result cache.
type CampaignReport struct {
	// Reports holds one report per requested ID, in request order — the
	// deterministic printing order — regardless of completion order.
	Reports []*Report
	// Stats is the campaign-wide run accounting, including cache counters.
	Stats metrics.RunStats
	// Failures lists every failed simulation, in occurrence order.
	Failures []*RunError
}

// RunCampaign executes the given experiment IDs concurrently over ONE shared
// Harness and result cache, under one global Workers budget. Experiments
// that request the same (config, apps, cycles) simulation — identical
// alone-IPC runs, the shared (pair, config) grids — share a single
// execution, so `maskexp all` scales with the number of distinct
// simulations, not the number of experiments. Per-experiment errors land in
// the matching Report.Err; the campaign itself always returns.
func RunCampaign(ids []string, opt Options) *CampaignReport {
	h := newHarness(opt)
	reports := make([]*Report, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		rep := &Report{ID: id}
		reports[i] = rep
		e, ok := registry[id]
		if !ok {
			rep.Err = fmt.Errorf("experiments: unknown experiment %q", id)
			continue
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					rep.Err = fmt.Errorf("experiments: %s panicked: %v", id, r)
				}
			}()
			rep.Tables, rep.Err = e.run(h, opt.Full)
		}(id)
	}
	wg.Wait()
	return &CampaignReport{Reports: reports, Stats: h.Stats(), Failures: h.Failures()}
}

func init() {
	register("calib", "calibration matrix over representative pairs",
		one(func(h *Harness, full bool) (*Table, error) { return Calib(h) }))
}
