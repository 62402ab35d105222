package maskd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"masksim/internal/experiments"
	"masksim/internal/simcache"
	"masksim/sim"
)

// isRetryable reports whether err is a 429 or 503 response, which a client
// backs off and retries.
func isRetryable(err error) bool {
	se, ok := err.(*statusError)
	return ok && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable)
}

// serverStats fetches the server-wide counters through c.
func serverStats(c *Client) (*ServerStats, error) {
	hr, err := http.NewRequest(http.MethodGet, c.url("/v1/stats"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(hr)
	if err != nil {
		return nil, err
	}
	var st ServerStats
	if err := decodeResponse(resp, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// cancelJob asks the server behind c to cancel job id.
func cancelJob(c *Client, id string) error {
	hr, err := http.NewRequest(http.MethodDelete, c.url("/v1/jobs/"+id), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(hr)
	if err != nil {
		return err
	}
	return decodeResponse(resp, nil)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Registered after TempDir, so it runs before the directory is removed:
	// a job a test submitted and never waited for must not still be writing
	// its results into the store then.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
	})
	return s, ts
}

func client(ts *httptest.Server, key string) *Client {
	return &Client{Base: ts.URL, APIKey: key}
}

// TestConcurrentClientsSingleFlight is the acceptance test: N HTTP clients
// submit overlapping campaigns concurrently; every distinct simulation must
// execute exactly once machine-wide (Attempted == cache Misses), and every
// client must receive byte-identical tables, equal to a local maskexp run.
func TestConcurrentClientsSingleFlight(t *testing.T) {
	const cycles = 600
	ids := []string{"fig8", "fig9", "comp-dram"}

	_, ts := newTestServer(t, Config{Workers: 4, Reserve: 1})

	const clients = 3
	results := make([]*JobStatus, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client(ts, fmt.Sprintf("tenant-%d", i))
			st, err := c.Submit(SubmitRequest{Experiments: ids, Cycles: cycles})
			if err != nil {
				errs[i] = err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			results[i], errs[i] = c.Wait(ctx, st.ID)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Every job finished clean with every cell done.
	render := func(st *JobStatus) string {
		var b strings.Builder
		for _, cell := range st.Cells {
			if cell.State != CellDone {
				t.Fatalf("job %s cell %s: state=%s err=%s", st.ID, cell.Name, cell.State, cell.Error)
			}
			for _, tab := range cell.Tables {
				b.WriteString(tab)
			}
		}
		return b.String()
	}
	first := render(results[0])
	for i := 1; i < clients; i++ {
		if render(results[i]) != first {
			t.Fatalf("client %d received different tables than client 0", i)
		}
	}

	// Byte-identical to a local (serverless) run of the same experiments.
	var local strings.Builder
	for _, id := range ids {
		rep, err := experiments.RunReport(id, experiments.Options{Cycles: cycles})
		if err != nil {
			t.Fatalf("local %s: %v", id, err)
		}
		for _, tab := range rep.Tables {
			local.WriteString(tab.String())
		}
	}
	if first != local.String() {
		t.Fatalf("server tables differ from local maskexp run:\n--- server ---\n%s\n--- local ---\n%s", first, local.String())
	}

	// Machine-wide single flight: every execution was a distinct cache miss.
	stats, err := serverStats(client(ts, "tenant-0"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stats.Attempted == 0 {
		t.Fatal("no simulations executed")
	}
	if stats.Stats.Attempted != stats.Cache.Misses {
		t.Fatalf("Attempted=%d != cache Misses=%d: some simulation executed twice",
			stats.Stats.Attempted, stats.Cache.Misses)
	}
	if stats.Cache.Hits+stats.Cache.InflightWaits == 0 {
		t.Fatal("no cross-client sharing observed")
	}

	// With three identical jobs, at least two of the three per-client campaigns
	// must have been served mostly from the shared cache.
	cacheHitCells := 0
	for _, st := range results {
		for _, cell := range st.Cells {
			if cell.CacheHit {
				cacheHitCells++
			}
		}
	}
	if cacheHitCells == 0 {
		t.Fatal("no cell reported CacheHit; per-cell attribution is broken")
	}
}

// TestTenantQuota429 checks admission fairness: a tenant that exhausted its
// token bucket gets 429 (with Retry-After) while another tenant's submissions
// still land.
func TestTenantQuota429(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	_, ts := newTestServer(t, Config{
		Workers:     2,
		TenantRate:  1.0 / 3600, // one job per hour
		TenantBurst: 1,
		Now:         clock,
	})

	job := SubmitRequest{Sims: []SimSpec{{Config: "SharedTLB", Apps: []string{"MM", "RED"}, Cycles: 200}}}

	a := client(ts, "tenant-a")
	if _, err := a.Submit(job); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := a.Submit(job)
	if !isRetryable(err) {
		t.Fatalf("exhausted tenant got %v, want 429", err)
	}

	b := client(ts, "tenant-b")
	st, err := b.Submit(job)
	if err != nil {
		t.Fatalf("other tenant blocked by a's quota: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if fin, err := b.Wait(ctx, st.ID); err != nil || fin.State != JobDone {
		t.Fatalf("tenant-b job: state=%v err=%v", fin, err)
	}

	// An hour later tenant-a's bucket refilled.
	mu.Lock()
	now = now.Add(time.Hour)
	mu.Unlock()
	if _, err := a.Submit(job); err != nil {
		t.Fatalf("refilled tenant still rejected: %v", err)
	}
}

// TestRetryAfterSeconds pins the header arithmetic: waits round UP to whole
// seconds, and an exact multiple must not gain a spurious extra second (the
// old int(ra/time.Second)+1 told clients to sleep 2 s for a 1 s refill,
// halving the admission rate they were entitled to).
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		ra   time.Duration
		want int64
	}{
		{0, 1},                      // no computable wait: still ask for a pause
		{-time.Second, 1},           // defensive: negative waits clamp up
		{time.Millisecond, 1},       // sub-second rounds up
		{500 * time.Millisecond, 1}, // sub-second rounds up
		{time.Second, 1},            // exact second: NOT 2
		{1001 * time.Millisecond, 2},
		{2 * time.Second, 2}, // exact multiple: NOT 3
		{2*time.Second + time.Millisecond, 3},
	} {
		if got := retryAfterSeconds(tc.ra); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.ra, got, tc.want)
		}
	}
}

// TestRetryAfterHeader drives the quota 429 path over HTTP with a frozen
// clock: a 1-token/s bucket that just emptied owes the client exactly one
// second, so the header must read "1". A half-token/s bucket owes exactly two
// seconds and must read "2" — exact multiples were the over-waiting case.
func TestRetryAfterHeader(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want string
	}{
		{1, "1"},   // exact 1 s wait
		{0.5, "2"}, // exact 2 s wait; the old rounding said "3"
		{2, "1"},   // 0.5 s wait rounds up
	} {
		now := time.Unix(5000, 0)
		var mu sync.Mutex
		clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
		_, ts := newTestServer(t, Config{
			Workers:     1,
			TenantRate:  tc.rate,
			TenantBurst: 1,
			Now:         clock,
		})

		body := `{"sims":[{"config":"SharedTLB","apps":["MM","RED"],"cycles":100}]}`
		post := func() *http.Response {
			t.Helper()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-API-Key", "tenant-ra")
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}

		if resp := post(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("rate=%g: first submit = %d, want 202", tc.rate, resp.StatusCode)
		}
		resp := post()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("rate=%g: exhausted submit = %d, want 429", tc.rate, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != tc.want {
			t.Errorf("rate=%g: Retry-After = %q, want %q", tc.rate, got, tc.want)
		}
	}
}

// TestClientGetOversizedEntry pins the truncation guard in Client.Get: a body
// longer than the cap must be a miss with a counted transport error — the old
// code returned the first cap bytes as a "hit", handing the cache a corrupt
// entry. A body at exactly the cap still round-trips whole.
func TestClientGetOversizedEntry(t *testing.T) {
	const capBytes = 1 << 10
	key := strings.Repeat("ab", 32)
	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cache/"+key {
			http.NotFound(w, r)
			return
		}
		w.Write(body)
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, MaxEntryBytes: capBytes}

	body = make([]byte, capBytes+1)
	if data, ok := c.Get(key); ok {
		t.Fatalf("oversized body served as a %d-byte hit, want miss", len(data))
	}
	if n := c.TransportErrors(); n != 1 {
		t.Fatalf("TransportErrors = %d after oversized body, want 1", n)
	}

	body = make([]byte, capBytes)
	data, ok := c.Get(key)
	if !ok {
		t.Fatal("exactly-at-cap body reported as miss")
	}
	if len(data) != capBytes {
		t.Fatalf("got %d bytes, want %d", len(data), capBytes)
	}
	if n := c.TransportErrors(); n != 1 {
		t.Fatalf("TransportErrors = %d after clean fetch, want still 1", n)
	}
}

// TestLimiterFairness checks the Silver-Queue execution rule: a tenant at or
// above its reserve cannot take a freed slot while another waiting tenant is
// below its own reserve.
func TestLimiterFairness(t *testing.T) {
	l := NewLimiter(2, 1)
	ctx := context.Background()
	a, b := l.For("a"), l.For("b")

	// Alone, tenant a gets the whole pool (reserve + surplus).
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}

	// b queues; a queues behind it too.
	got := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); b.Acquire(ctx); got <- "b" }()
	// Give b time to register as waiting so the freed slot is owed to it.
	time.Sleep(50 * time.Millisecond)
	go func() { defer wg.Done(); a.Acquire(ctx); got <- "a" }()
	time.Sleep(50 * time.Millisecond)

	a.Release() // frees one slot: owed to b (below reserve), not to a
	if first := <-got; first != "b" {
		t.Fatalf("freed slot went to %q, want the under-reserve tenant b", first)
	}
	a.Release() // now a's queued acquire may proceed
	if second := <-got; second != "a" {
		t.Fatalf("second slot went to %q, want a", second)
	}
	wg.Wait()
	b.Release()
	a.Release()
}

// TestLimiterAcquireContext checks a canceled waiter exits without a slot.
func TestLimiterAcquireContext(t *testing.T) {
	l := NewLimiter(1, 1)
	a := l.For("a")
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := l.For("b").Acquire(ctx); err == nil {
		t.Fatal("Acquire succeeded with no free slot")
	}
	a.Release()
	if got := len(l.Inflight()); got != 0 {
		t.Fatalf("inflight = %d after full release", got)
	}
}

// TestCacheStoreRoundTrip exercises the content-addressed store endpoints:
// publish, fetch, and the rejection paths (bad key, mismatched entry).
func TestCacheStoreRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := client(ts, "t")

	res := &sim.Results{Config: "SharedTLB", Cycles: 42, TotalIPC: 1.5}
	key := strings.Repeat("ab", 32)
	data, err := simcache.EncodeEntry(key, res)
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(key); ok {
		t.Fatal("got an entry that was never put")
	}
	c.Put(key, data)
	if n := c.TransportErrors(); n != 0 {
		t.Fatalf("put failed (%d transport errors)", n)
	}
	back, ok := c.Get(key)
	if !ok {
		t.Fatal("published entry not served")
	}
	got, err := simcache.DecodeEntry(key, back)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != 42 || got.TotalIPC != 1.5 {
		t.Fatalf("round-trip mangled the entry: %+v", got)
	}

	// Malformed key: 400 on both verbs.
	resp, err := http.Get(ts.URL + "/v1/cache/not-a-fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key GET = %d, want 400", resp.StatusCode)
	}

	// An entry published under the wrong key is rejected, not stored.
	otherKey := strings.Repeat("cd", 32)
	c.Put(otherKey, data)
	if _, ok := c.Get(otherKey); ok {
		t.Fatal("store accepted an entry whose body names a different key")
	}
}

// TestRemoteClientMode is maskexp -remote end to end: a campaign with the
// server store behind its cache publishes results; a second campaign with a
// fresh local cache resolves everything remotely, byte-identical, simulating
// nothing.
func TestRemoteClientMode(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const cycles = 400

	render := func(camp *experiments.CampaignReport) string {
		var b strings.Builder
		for _, rep := range camp.Reports {
			if rep.Err != nil {
				t.Fatalf("%s: %v", rep.ID, rep.Err)
			}
			for _, tab := range rep.Tables {
				b.WriteString(tab.String())
			}
		}
		return b.String()
	}

	first := experiments.RunCampaign([]string{"fig8"}, experiments.Options{
		Cycles: cycles, Workers: 2, Remote: client(ts, "alice"),
	})
	if first.Stats.Attempted == 0 || first.Stats.RemotePuts == 0 {
		t.Fatalf("first campaign stats = %+v, want executions published to the server", first.Stats)
	}

	second := experiments.RunCampaign([]string{"fig8"}, experiments.Options{
		Cycles: cycles, Workers: 2, Remote: client(ts, "bob"),
	})
	if second.Stats.Attempted != 0 {
		t.Fatalf("remote resume simulated %d runs, want 0", second.Stats.Attempted)
	}
	if second.Stats.RemoteHits == 0 {
		t.Fatal("remote resume recorded no remote hits")
	}
	if render(first) != render(second) {
		t.Fatal("remote-resumed tables differ from the originals")
	}

	// The server observed the publishes and the cross-machine hits.
	stats, err := serverStats(client(ts, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store.Puts == 0 || stats.Store.Hits == 0 {
		t.Fatalf("store stats = %+v, want puts and hits", stats.Store)
	}
}

// TestCancelJob checks DELETE /v1/jobs/{id} stops an in-flight job through
// the context plumbing.
func TestCancelJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := client(ts, "t")
	st, err := c.Submit(SubmitRequest{Sims: []SimSpec{
		{Config: "SharedTLB", Apps: []string{"MM", "RED"}, Cycles: 500_000_000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cancelJob(c, st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobCanceled {
		t.Fatalf("state = %s, want canceled", fin.State)
	}
	for _, cell := range fin.Cells {
		if cell.State == CellDone {
			t.Fatalf("cell %s completed despite cancel", cell.Name)
		}
	}
}

// TestDrain checks graceful shutdown: running jobs finish, then submissions
// and healthz report unavailability while the store stays readable.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := client(ts, "t")
	job := SubmitRequest{Sims: []SimSpec{{Config: "SharedTLB", Apps: []string{"MM", "RED"}, Cycles: 200}}}
	st, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(job); !isRetryable(err) {
		t.Fatalf("submit while draining = %v, want 503", err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	// The store keeps serving reads for clients finishing their own work.
	resp, err = http.Get(ts.URL + "/v1/cache/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("store GET while draining = %d, want 404 (still served)", resp.StatusCode)
	}
}

// TestSubmitValidation checks malformed submissions are rejected up front.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := client(ts, "t")
	for _, req := range []SubmitRequest{
		{}, // empty
		{Experiments: []string{"no-such-experiment"}},
		{Sims: []SimSpec{{Config: "NoSuchConfig", Apps: []string{"MM"}}}},
		{Sims: []SimSpec{{Config: "SharedTLB"}}},
		{Sims: []SimSpec{{Config: "SharedTLB", Apps: []string{"MM", "RED"}, Alone: true}}},
	} {
		if _, err := c.Submit(req); err == nil {
			t.Fatalf("submission %+v accepted, want 400", req)
		}
	}
}

// TestLongPollAndEvents checks version-gated long-polls return promptly on
// change and the SSE stream carries the job to its terminal state.
func TestLongPollAndEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	c := client(ts, "t")
	st, err := c.Submit(SubmitRequest{Sims: []SimSpec{
		{Config: "SharedTLB", Apps: []string{"MM", "RED"}, Cycles: 300},
	}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone || fin.Version == 0 {
		t.Fatalf("job = %+v, want done with advancing version", fin)
	}

	// The SSE stream replays to terminal for a late subscriber.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64<<10)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), `"state":"done"`) {
		t.Fatalf("SSE stream did not deliver the terminal state: %q", buf[:n])
	}
}

// TestGCEndpointAndRetention checks RunGC applies the retention policy over
// the server store: under a hard size cap the oldest entry goes first.
func TestGCEndpointAndRetention(t *testing.T) {
	dir := t.TempDir()
	res := &sim.Results{Config: "x", Cycles: 1}
	var total int64
	var datas [][]byte
	for i := 0; i < 2; i++ {
		key := strings.Repeat(fmt.Sprintf("%d", i), 64)
		data, err := simcache.EncodeEntry(key, res)
		if err != nil {
			t.Fatal(err)
		}
		datas = append(datas, data)
		total += int64(len(data))
	}

	s, _ := newTestServer(t, Config{
		Workers:  1,
		CacheDir: dir,
		GC:       simcache.GCPolicy{MaxBytes: total - 1, KeepPerKey: 1},
	})
	for i, data := range datas {
		key := strings.Repeat(fmt.Sprintf("%d", i), 64)
		if err := s.cache.PutRawEntry(key, data); err != nil {
			t.Fatal(err)
		}
	}
	// Age the first entry so the squeeze picks it.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, strings.Repeat("0", 64)+".json"), old, old); err != nil {
		t.Fatal(err)
	}

	got := s.RunGC()
	if got.Scanned != 2 || got.Removed != 1 {
		t.Fatalf("GC result = %+v, want 1 of 2 removed", got)
	}
	if _, err := os.Stat(filepath.Join(dir, strings.Repeat("1", 64)+".json")); err != nil {
		t.Fatalf("newest entry did not survive the squeeze: %v", err)
	}
}

// TestStreamingTelemetrySSE covers the live-telemetry path end to end: a sim
// cell submitted with TelemetryEpoch must execute even when the shared cache
// already holds the identical simulation (streaming bypasses the cache), and
// the job's SSE feed must carry one `event: telemetry` frame per telemetry
// record — the JSONL meta prelude plus each closing epoch's sample.
func TestStreamingTelemetrySSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	c := client(ts, "t")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := SimSpec{Config: "SharedTLB", Apps: []string{"MM", "RED"}, Cycles: 600}
	st, err := c.Submit(SubmitRequest{Sims: []SimSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != JobDone || warm.Cells[0].Executed == 0 {
		t.Fatalf("cache-warming job = %+v, want an executed done cell", warm)
	}

	spec.TelemetryEpoch = 100
	st, err = c.Submit(SubmitRequest{Sims: []SimSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone {
		t.Fatalf("streaming job = %+v, want done", fin)
	}
	if cell := fin.Cells[0]; cell.CacheHit || cell.Executed == 0 {
		t.Fatalf("streaming cell = %+v: served from cache, its feed saw nothing", cell)
	}

	// A late subscriber replays the retained ring: meta record first, then
	// one sample per closed epoch, each wrapped in an event: telemetry frame.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var meta, samples int
	var lastSeq uint64
	for _, block := range strings.Split(string(body), "\n\n") {
		rest, ok := strings.CutPrefix(block, "event: telemetry\ndata: ")
		if !ok {
			continue
		}
		var frame struct {
			Cell    int    `json:"cell"`
			Seq     uint64 `json:"seq"`
			Skipped uint64 `json:"skipped"`
			Record  struct {
				Type  string `json:"type"`
				Cycle int64  `json:"cycle"`
			} `json:"record"`
		}
		if err := json.Unmarshal([]byte(rest), &frame); err != nil {
			t.Fatalf("bad telemetry frame %q: %v", rest, err)
		}
		if frame.Cell != 0 || frame.Skipped != 0 {
			t.Fatalf("frame = %+v, want cell 0 with nothing skipped", frame)
		}
		if meta+samples > 0 && frame.Seq != lastSeq+1 {
			t.Fatalf("telemetry seq jumped %d -> %d", lastSeq, frame.Seq)
		}
		lastSeq = frame.Seq
		switch frame.Record.Type {
		case "meta":
			meta++
		case "sample":
			samples++
			if frame.Record.Cycle <= 0 || frame.Record.Cycle > 600 {
				t.Fatalf("sample cycle %d outside the run", frame.Record.Cycle)
			}
		}
	}
	if meta != 1 || samples < 3 {
		t.Fatalf("SSE feed carried %d meta and %d sample frames, want 1 meta and >=3 samples", meta, samples)
	}
	if !strings.Contains(string(body), `"state":"done"`) {
		t.Fatal("SSE feed did not end with the terminal status frame")
	}
}
