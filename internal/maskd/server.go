package maskd

// The HTTP surface. Stdlib-only: net/http's 1.22 pattern router, SSE via
// http.Flusher, long-poll via job.await. All state is in-process; the shared
// content-addressed store is the server's simcache disk layer, served raw by
// fingerprint so remote maskexp clients and other maskd instances can consult
// and populate it.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"masksim/internal/experiments"
	"masksim/internal/metrics"
	"masksim/internal/simcache"
	"masksim/internal/snapshot"
	"masksim/internal/telemetry"
	"masksim/sim"
)

// Config wires a Server.
type Config struct {
	// CacheDir is the on-disk result store (required for the /v1/cache
	// endpoints; in-memory dedup works without it).
	CacheDir string
	// CheckpointDir enables mid-run checkpoints for server-side executions.
	CheckpointDir   string
	CheckpointEvery int64
	// Workers is the machine-wide execution-slot pool (0 = 1).
	Workers int
	// Reserve is the per-tenant guaranteed slot count (Silver Queue trickle).
	Reserve int
	// TenantRate/TenantBurst shape the per-tenant admission token bucket
	// (jobs per second / bucket size). Rate 0 = unlimited.
	TenantRate  float64
	TenantBurst float64
	// MaxActiveJobs bounds queued+running jobs server-wide; beyond it
	// submissions get 429. 0 = unlimited.
	MaxActiveJobs int
	// RunTimeout bounds each simulation's wall-clock time (0 = none).
	RunTimeout time.Duration
	// DefaultCycles is the per-run budget when a submission leaves Cycles
	// zero (default 50000, matching maskexp).
	DefaultCycles int64
	// GC is the retention policy for the cache and checkpoint directories;
	// GCEvery its cadence (0 = no background sweeps).
	GC      simcache.GCPolicy
	GCEvery time.Duration
	// MaxEntryBytes caps a PUT /v1/cache body (default 64 MiB).
	MaxEntryBytes int64
	// Now is the clock (nil = time.Now); tests inject a fake.
	Now func() time.Time
}

// Server is the maskd daemon state.
type Server struct {
	cfg     Config
	cache   *simcache.Cache
	limiter *Limiter
	quota   *Quota
	mux     *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // submission order, for /v1/jobs listing
	nextID   int
	active   int // queued or running jobs
	draining bool
	finished metrics.RunStats // run accounting of finished jobs
	gcLast   simcache.GCResult

	store StoreStats

	wg     sync.WaitGroup
	gcStop chan struct{}
}

// StoreStats counts shared-store traffic (the /v1/cache endpoints remote
// clients drive).
type StoreStats struct {
	// Gets counts entry fetches; Hits the ones served (cross-machine dedup
	// evidence).
	Gets uint64 `json:"gets"`
	Hits uint64 `json:"hits"`
	// Puts counts accepted publishes; Rejects bodies refused as corrupt,
	// mismatched, malformed or oversized.
	Puts    uint64 `json:"puts"`
	Rejects uint64 `json:"rejects"`
}

// NewServer builds a server from cfg. The cache directory is created durably
// up front so a misconfigured store fails at startup, not mid-campaign.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Reserve < 1 {
		cfg.Reserve = 1
	}
	if cfg.DefaultCycles <= 0 {
		cfg.DefaultCycles = 50_000
	}
	if cfg.MaxEntryBytes <= 0 {
		cfg.MaxEntryBytes = 64 << 20
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cache := simcache.New(cfg.CacheDir)
	if cfg.CacheDir != "" {
		if err := snapshot.EnsureDir(cfg.CacheDir); err != nil {
			return nil, fmt.Errorf("maskd: cache dir: %w", err)
		}
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		limiter: NewLimiter(cfg.Workers, cfg.Reserve),
		quota:   &Quota{Rate: cfg.TenantRate, Burst: cfg.TenantBurst},
		jobs:    make(map[string]*job),
		gcStop:  make(chan struct{}),
	}
	s.routes()
	if cfg.GCEvery > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
}

// tenant identifies the caller: the X-API-Key header, or "anonymous".
func tenant(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders a wait as a Retry-After header value: the exact
// wait rounded up to whole seconds, never below 1. Plain int(ra/time.Second)+1
// over-waits by a full second whenever the wait is an exact multiple (a 1 s
// token refill told clients to sleep 2 s, halving their admission rate).
func retryAfterSeconds(ra time.Duration) int64 {
	secs := (int64(ra) + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleSubmit admits and validates a job, settles every sim cell the shared
// cache has already finished, and launches the rest. A job whose every cell
// settled is terminal in the response and starts nothing.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ten := tenant(r)
	var req SubmitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cycles := req.Cycles
	if cycles <= 0 {
		cycles = s.cfg.DefaultCycles
	}
	// Resolved, and keyed, before admission: pure work, kept off the lock.
	sims := make([]simCell, len(req.Sims))
	for i, spec := range req.Sims {
		sims[i] = resolveSim(spec, cycles)
	}

	now := s.cfg.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.cfg.MaxActiveJobs > 0 && s.active >= s.cfg.MaxActiveJobs {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (%d active)", s.cfg.MaxActiveJobs)
		return
	}
	if !s.quota.Allow(ten, now) {
		s.mu.Unlock()
		ra := s.quota.RetryAfter(ten, now)
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(ra), 10))
		writeError(w, http.StatusTooManyRequests, "tenant %q over admission quota", ten)
		return
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := &job{tenant: ten}
	j.status = JobStatus{ID: id, Tenant: ten, State: JobQueued}
	j.status.Cells = make([]CellStatus, 0, len(req.Experiments)+len(sims))
	for _, eid := range req.Experiments {
		j.status.Cells = append(j.status.Cells, CellStatus{Name: eid, Kind: "experiment", State: CellQueued})
	}
	for _, c := range sims {
		j.status.Cells = append(j.status.Cells, CellStatus{Name: cellName(c.spec), Kind: "sim", State: CellQueued})
	}
	j.feeds = make([]*telemetryFeed, len(j.status.Cells))
	var (
		pending []pendingCell
		stats   metrics.RunStats
	)
	for i, eid := range req.Experiments {
		pending = append(pending, pendingCell{i, func(ctx context.Context) (CellStatus, metrics.RunStats) {
			return s.runExperimentCell(ctx, ten, eid, cycles, req.Full)
		}})
	}
	for k, c := range sims {
		i := len(req.Experiments) + k
		if c.key != "" {
			// What runSimCell would report: the harness's DoInfo answers
			// this key from the same finished entry.
			if res, ok, err := s.cache.Cached(c.key); ok {
				setCell(&j.status, i, simCellStatus(res, false, err, cachedStats))
				stats.Merge(cachedStats)
				continue
			}
		} else {
			// Each closing epoch bumps the job version (through an otherwise
			// empty update), so SSE subscribers and long-pollers wake per
			// epoch, not per cell transition.
			j.feeds[i] = newTelemetryFeed(func() { j.update(func(*JobStatus) {}) })
		}
		pending = append(pending, pendingCell{i, func(ctx context.Context) (CellStatus, metrics.RunStats) {
			return s.runSimCell(ctx, ten, c, j.feeds[i])
		}})
	}
	if len(pending) < len(j.status.Cells) {
		j.status.Version = 1 // the settled cells' one transition
	}
	var ctx context.Context
	if len(pending) == 0 {
		j.status.Stats = stats
		settle(&j.status, false)
		s.finished.Merge(stats)
	} else {
		ctx, j.cancel = context.WithCancel(context.Background())
		s.active++
		s.wg.Add(1)
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()

	st := j.snapshot() // the status at submit, whatever the cells do next
	if ctx != nil {
		go s.runJob(ctx, j, pending, stats)
	}
	writeJSON(w, http.StatusAccepted, st)
}

// cachedStats is the harness's accounting of a sim cell that a finished
// cache entry answered: one request, nothing run.
var cachedStats = metrics.RunStats{CacheRequests: 1}

// pendingCell is a cell the submit could not settle: its index and its run.
type pendingCell struct {
	i   int
	run func(ctx context.Context) (CellStatus, metrics.RunStats)
}

// runJob executes the pending cells concurrently and settles the job state.
// stats is the accounting of the cells the submit settled.
func (s *Server) runJob(ctx context.Context, j *job, pending []pendingCell, stats metrics.RunStats) {
	defer s.wg.Done()
	defer j.cancel()
	j.update(func(st *JobStatus) { st.State = JobRunning })

	var wg sync.WaitGroup
	var jobStats struct {
		sync.Mutex
		stats metrics.RunStats
	}
	jobStats.stats = stats
	for _, p := range pending {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.update(func(st *JobStatus) { st.Cells[p.i].State = CellRunning })
			cell, cellStats := p.run(ctx)
			jobStats.Lock()
			jobStats.stats.Merge(runOnly(cellStats))
			jobStats.Unlock()
			j.update(func(st *JobStatus) { setCell(st, p.i, cell) })
		}()
	}
	wg.Wait()

	j.update(func(st *JobStatus) {
		st.Stats = jobStats.stats
		settle(st, ctx.Err() != nil)
	})

	s.mu.Lock()
	s.active--
	s.finished.Merge(jobStats.stats)
	s.mu.Unlock()
}

// setCell puts a finished cell's status in place, keeping its name and kind.
func setCell(st *JobStatus, i int, cell CellStatus) {
	cell.Name, cell.Kind = st.Cells[i].Name, st.Cells[i].Kind
	st.Cells[i] = cell
}

// settle ends a job whose cells have all finished: done, failed when a cell
// failed, or canceled, with every cell not done, when the job was.
func settle(st *JobStatus, canceled bool) {
	st.State = JobDone
	for i := range st.Cells {
		switch {
		case canceled && st.Cells[i].State != CellDone:
			st.Cells[i].State = CellCanceled
		case st.Cells[i].State == CellFailed:
			st.State = JobFailed
		}
	}
	if canceled {
		st.State = JobCanceled
	}
}

// cellHarnessOpts are the per-cell experiment options: own harness, shared
// cache and fair slots.
func (s *Server) cellHarnessOpts(ctx context.Context, ten string, cycles int64, full bool) experiments.Options {
	return experiments.Options{
		Cycles:          cycles,
		Full:            full,
		Ctx:             ctx,
		RunTimeout:      s.cfg.RunTimeout,
		CheckpointDir:   s.cfg.CheckpointDir,
		CheckpointEvery: s.cfg.CheckpointEvery,
		Cache:           s.cache,
		Slots:           s.limiter.For(ten),
	}
}

func (s *Server) runExperimentCell(ctx context.Context, ten, id string, cycles int64, full bool) (CellStatus, metrics.RunStats) {
	rep, err := experiments.RunReport(id, s.cellHarnessOpts(ctx, ten, cycles, full))
	cell := CellStatus{State: CellDone}
	var stats metrics.RunStats
	if rep != nil {
		stats = rep.Stats
		cell.Requests = rep.Stats.CacheRequests
		cell.Executed = rep.Stats.Attempted
		cell.CacheHit = err == nil && cell.Requests > 0 && cell.Executed == 0
		for _, t := range rep.Tables {
			cell.Tables = append(cell.Tables, t.String())
		}
	}
	if err != nil {
		cell.State = CellFailed
		cell.Error = err.Error()
	}
	return cell, stats
}

// simCell is a sim cell's run resolved from its spec, once: runSimCell runs
// it, and the submit looks up the result-cache key the harness files it
// under, so the two cannot disagree on the configuration, the cycle budget
// or an alone run's core count.
type simCell struct {
	spec   SimSpec
	cfg    sim.Config
	cycles int64
	cores  int // alone runs only
	// key is the cache fingerprint of the run, as the harness's RunEx or
	// RunAloneEx computes it; "" for a streaming cell, which runs with a
	// telemetry sink that simcache.Cacheable refuses.
	key string
}

// resolveSim resolves a validated spec, whose configuration name is known,
// under the job's default cycle budget.
func resolveSim(spec SimSpec, defCycles int64) simCell {
	c := simCell{spec: spec, cycles: spec.Cycles, cores: spec.Cores}
	if c.cycles <= 0 {
		c.cycles = defCycles
	}
	c.cfg, _ = sim.ConfigByName(spec.Config)
	if c.cores <= 0 {
		c.cores = c.cfg.Cores
	}
	switch {
	case spec.TelemetryEpoch > 0:
	case spec.Alone:
		c.key = simcache.AloneKey(c.cfg, spec.Apps[0], c.cores, c.cycles)
	default:
		c.key = simcache.RunKey(c.cfg, spec.Apps, c.cycles)
	}
	return c
}

func (s *Server) runSimCell(ctx context.Context, ten string, c simCell, feed *telemetryFeed) (CellStatus, metrics.RunStats) {
	cfg := c.cfg
	var sink *telemetry.StreamSink
	if feed != nil {
		// Stream each closing epoch into the job's feed as JSONL. Auto-flush
		// pushes records out per epoch instead of per 256KB buffer, and the
		// sink in the config makes the run uncacheable, so the simulation the
		// subscribers are watching actually executes.
		cfg.TelemetryEpoch = c.spec.TelemetryEpoch
		sink = telemetry.NewStreamSink()
		sink.SetAutoFlush(true)
		if err := sink.Attach(telemetry.FormatJSONL, feed); err != nil {
			return CellStatus{State: CellFailed, Error: err.Error()}, metrics.RunStats{}
		}
		cfg.TelemetrySink = sink
	}
	h := experiments.NewHarness(c.cycles)
	h.Ctx = ctx
	h.RunTimeout = s.cfg.RunTimeout
	h.Cache = s.cache
	h.Slots = s.limiter.For(ten)
	h.CheckpointDir = s.cfg.CheckpointDir
	h.CheckpointEvery = s.cfg.CheckpointEvery

	var (
		res  *sim.Results
		info experiments.RunInfo
		err  error
	)
	if c.spec.Alone {
		res, info, err = h.RunAloneEx(cfg, c.spec.Apps[0], c.cores)
	} else {
		res, info, err = h.RunEx(cfg, c.spec.Apps)
	}
	if sink != nil {
		if cerr := sink.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("telemetry stream: %w", cerr)
		}
	}
	stats := h.Stats()
	return simCellStatus(res, info.Executed, err, stats), stats
}

// simCellStatus is a finished sim cell's status: its run's outcome, whether
// this request executed it, and the harness's accounting of the request.
func simCellStatus(res *sim.Results, executed bool, err error, stats metrics.RunStats) CellStatus {
	cell := CellStatus{
		State:    CellDone,
		Requests: stats.CacheRequests,
		Executed: stats.Attempted,
		CacheHit: err == nil && !executed,
		Results:  res,
	}
	if err != nil {
		cell.State = CellFailed
		cell.Error = err.Error()
		cell.Results = nil
	}
	return cell
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleJob returns a job snapshot, long-polling when ?since=V is at the
// current version and ?wait=D is positive.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	q := r.URL.Query()
	if waitStr := q.Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, "bad wait %q", waitStr)
			return
		}
		if wait > time.Minute {
			wait = time.Minute
		}
		since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
		writeJSON(w, http.StatusOK, j.await(r.Context(), since, wait))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// telemetryFrame is one `event: telemetry` SSE payload: a raw record from a
// streaming cell's JSONL telemetry feed, tagged with its cell index and feed
// sequence number. Skipped, when present, counts records the ring evicted
// before this subscriber drained them (it only retains the newest feedDepth).
type telemetryFrame struct {
	Cell    int             `json:"cell"`
	Seq     uint64          `json:"seq"`
	Skipped uint64          `json:"skipped,omitempty"`
	Record  json.RawMessage `json:"record"`
}

// handleEvents streams job snapshots as server-sent events until the job is
// terminal or the client goes away. Streaming cells interleave `event:
// telemetry` frames: each closing telemetry epoch is relayed as soon as the
// sink commits it, ahead of the status frame of the same wake.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var since uint64
	pos := make([]uint64, len(j.feeds))
	for {
		st := j.await(r.Context(), since, 30*time.Second)
		for i, f := range j.feeds {
			if f == nil {
				continue
			}
			lines, next, skipped := f.drain(pos[i])
			for li, line := range lines {
				frame := telemetryFrame{Cell: i, Seq: next - uint64(len(lines)-li), Record: json.RawMessage(line)}
				if li == 0 {
					frame.Skipped = skipped
				}
				data, err := json.Marshal(frame)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: telemetry\ndata: %s\n\n", data)
			}
			pos[i] = next
		}
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, "data: %s\n\n", data)
		fl.Flush()
		if st.Terminal() {
			return
		}
		since = st.Version
		if r.Context().Err() != nil {
			return
		}
	}
}

// handleCancel cancels a job's context; in-flight cells wind down through the
// harness supervision path.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.stop()
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleList returns the calling tenant's job snapshots, newest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ten := tenant(r)
	var jobs []*job
	s.mu.Lock()
	for k := len(s.order) - 1; k >= 0; k-- {
		if j := s.order[k]; j.tenant == ten {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for k, j := range jobs {
		out[k] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCacheGet serves one raw content-addressed entry.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !simcache.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "malformed key")
		return
	}
	s.mu.Lock()
	s.store.Gets++
	s.mu.Unlock()
	data, err := s.cache.RawEntry(key)
	if err != nil {
		writeError(w, http.StatusNotFound, "no entry")
		return
	}
	s.mu.Lock()
	s.store.Hits++
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleCachePut accepts one entry, validating it against its key before it
// touches the store (a corrupt or mismatched body is rejected, not stored).
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !simcache.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "malformed key")
		return
	}
	if s.cache.Dir() == "" {
		writeError(w, http.StatusNotImplemented, "server has no persistent store")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxEntryBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxEntryBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "entry exceeds %d bytes", s.cfg.MaxEntryBytes)
		return
	}
	if err := s.cache.PutRawEntry(key, body); err != nil {
		s.mu.Lock()
		s.store.Rejects++
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, "rejected: %v", err)
		return
	}
	s.mu.Lock()
	s.store.Puts++
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	// Jobs counts by state.
	Jobs map[string]int `json:"jobs"`
	// Stats is the merged run accounting of all finished jobs.
	Stats metrics.RunStats `json:"stats"`
	// Cache is the shared result cache's counters (the machine-wide dedup
	// evidence for server-side executions: Requests vs Misses).
	Cache simcache.Stats `json:"cache"`
	// Store is the raw /v1/cache endpoint traffic (the cross-machine dedup
	// evidence for maskexp -remote clients).
	Store StoreStats `json:"store"`
	// Inflight is the execution slots currently held, per tenant.
	Inflight map[string]int `json:"inflight"`
	// LastGC is the most recent retention sweep.
	LastGC simcache.GCResult `json:"lastGC"`
	// Draining is true once graceful shutdown began.
	Draining bool `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	stats := s.finished
	jobs := map[string]int{}
	for _, j := range s.jobs {
		j.mu.Lock()
		jobs[string(j.status.State)]++
		j.mu.Unlock()
	}
	gcLast := s.gcLast
	draining := s.draining
	store := s.store
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ServerStats{
		Jobs:     jobs,
		Stats:    stats,
		Cache:    s.cache.Stats(),
		Store:    store,
		Inflight: s.limiter.Inflight(),
		LastGC:   gcLast,
		Draining: draining,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// gcDirs are the directories the retention policy covers.
func (s *Server) gcDirs() []string {
	var dirs []string
	if s.cfg.CacheDir != "" {
		dirs = append(dirs, s.cfg.CacheDir)
	}
	if s.cfg.CheckpointDir != "" && s.cfg.CheckpointDir != s.cfg.CacheDir {
		dirs = append(dirs, s.cfg.CheckpointDir)
	}
	return dirs
}

// RunGC sweeps the store and checkpoint directories once under the configured
// policy and records the result for /v1/stats.
func (s *Server) RunGC() simcache.GCResult {
	res := simcache.GC(s.gcDirs(), s.cfg.GC, s.cfg.Now())
	s.mu.Lock()
	s.gcLast = res
	s.mu.Unlock()
	return res
}

func (s *Server) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.GCEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.RunGC()
		case <-s.gcStop:
			return
		}
	}
}

// Drain stops admitting jobs (submissions get 503, healthz flips) and waits
// for every running job and the GC loop to finish, or for ctx to expire.
// Cache GET/PUT stay available throughout, so clients finishing their own
// work can still publish results.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.gcStop)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CancelAll cancels every non-terminal job (used by hard shutdown paths).
func (s *Server) CancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.stop()
	}
}
