package simcache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"masksim/internal/faultinject"
	"masksim/sim"
)

// TestSingleFlight launches many concurrent requests for one key and checks
// that exactly one executes while every caller receives the shared result.
func TestSingleFlight(t *testing.T) {
	c := New("")
	const goroutines = 16
	var executions atomic.Int64
	release := make(chan struct{})
	want := &sim.Results{TotalIPC: 1.25}

	var wg sync.WaitGroup
	results := make([]*sim.Results, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Do("k", func() (*sim.Results, error) {
				executions.Add(1)
				<-release // hold the leader so the others must join in-flight
				return want, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = res
		}(i)
	}
	// Let every goroutine reach Do before the leader finishes. InflightWaits
	// vs Hits depends on timing; the invariants below don't.
	for c.Stats().Requests < goroutines {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	for i, res := range results {
		if res != want {
			t.Fatalf("goroutine %d got %p, want shared %p", i, res, want)
		}
	}
	s := c.Stats()
	if s.Requests != goroutines || s.Misses != 1 || s.Hits+s.InflightWaits != goroutines-1 {
		t.Fatalf("stats = %+v, want Requests=%d Misses=1 Hits+InflightWaits=%d",
			s, goroutines, goroutines-1)
	}
}

// TestFailureMemoized checks that a failed run is cached: the second request
// returns the same error without re-executing.
func TestFailureMemoized(t *testing.T) {
	c := New("")
	wantErr := errors.New("boom")
	var executions int
	run := func() (*sim.Results, error) {
		executions++
		return nil, wantErr
	}
	if _, err := c.Do("k", run); !errors.Is(err, wantErr) {
		t.Fatalf("first Do err = %v, want %v", err, wantErr)
	}
	if _, err := c.Do("k", run); !errors.Is(err, wantErr) {
		t.Fatalf("second Do err = %v, want %v", err, wantErr)
	}
	if executions != 1 {
		t.Fatalf("executed %d times, want 1", executions)
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want Hits=1", s)
	}
}

// TestPanicDoesNotWedgeWaiters checks that a panicking run func is converted
// to an error instead of leaving waiters blocked forever.
func TestPanicDoesNotWedgeWaiters(t *testing.T) {
	c := New("")
	if _, err := c.Do("k", func() (*sim.Results, error) { panic("kaboom") }); err == nil {
		t.Fatal("want error from panicking run")
	}
	// The entry is complete; a second request must not block or re-execute.
	if _, err := c.Do("k", func() (*sim.Results, error) {
		t.Fatal("re-executed after panic")
		return nil, nil
	}); err == nil {
		t.Fatal("want memoized panic error")
	}
}

// TestDiskRoundTrip persists a result, then reads it back through a fresh
// Cache on the same directory without executing.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := &sim.Results{Config: "SharedTLB", Cycles: 600, TotalIPC: 2.5}

	c1 := New(dir)
	if _, err := c1.Do("k", func() (*sim.Results, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if s := c1.Stats(); s.DiskWrites != 1 || s.DiskErrors != 0 {
		t.Fatalf("stats after write = %+v, want DiskWrites=1 DiskErrors=0", s)
	}

	c2 := New(dir)
	got, err := c2.Do("k", func() (*sim.Results, error) {
		t.Fatal("executed despite disk entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalIPC != want.TotalIPC || got.Cycles != want.Cycles || got.Config != want.Config {
		t.Fatalf("round-trip got %+v, want %+v", got, want)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Misses != 1 {
		t.Fatalf("stats after read = %+v, want DiskHits=1 Misses=1", s)
	}
}

// TestDiskRejectsCorruptEntry checks that garbage, version-mismatched and
// key-mismatched entries are rejected (counted in DiskErrors) and recomputed,
// with the bad file replaced by a valid one.
func TestDiskRejectsCorruptEntry(t *testing.T) {
	cases := map[string]string{
		"garbage":          "not json{",
		"version mismatch": `{"Version":99,"Key":"k","Results":{"TotalIPC":1}}`,
		"key mismatch":     `{"Version":1,"Key":"other","Results":{"TotalIPC":1}}`,
		"nil results":      `{"Version":1,"Key":"k"}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "k.json"), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			c := New(dir)
			var executed bool
			res, err := c.Do("k", func() (*sim.Results, error) {
				executed = true
				return &sim.Results{TotalIPC: 3}, nil
			})
			if err != nil || !executed || res.TotalIPC != 3 {
				t.Fatalf("res=%v err=%v executed=%v, want recompute", res, err, executed)
			}
			s := c.Stats()
			if s.DiskErrors == 0 || s.DiskHits != 0 || s.DiskWrites != 1 {
				t.Fatalf("stats = %+v, want DiskErrors>0 DiskHits=0 DiskWrites=1", s)
			}
			// The rewritten entry must now load cleanly.
			c2 := New(dir)
			got, err := c2.Do("k", func() (*sim.Results, error) {
				t.Fatal("executed despite rewritten entry")
				return nil, nil
			})
			if err != nil || got.TotalIPC != 3 {
				t.Fatalf("reload got %v err=%v", got, err)
			}
		})
	}
}

// TestAbortedNotPersisted checks that partial (aborted) results never reach
// the disk layer.
func TestAbortedNotPersisted(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	if _, err := c.Do("k", func() (*sim.Results, error) {
		return &sim.Results{Aborted: true, AbortReason: "watchdog"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.DiskWrites != 0 {
		t.Fatalf("stats = %+v, want DiskWrites=0 for aborted result", s)
	}
	if _, err := os.Stat(filepath.Join(dir, "k.json")); !os.IsNotExist(err) {
		t.Fatalf("disk entry exists for aborted result (stat err=%v)", err)
	}
}

// fakeRemote is an in-memory RemoteStore.
type fakeRemote struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newFakeRemote() *fakeRemote { return &fakeRemote{m: map[string][]byte{}} }

func (r *fakeRemote) Get(key string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gets++
	b, ok := r.m[key]
	return b, ok
}

func (r *fakeRemote) Put(key string, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.puts++
	r.m[key] = append([]byte(nil), data...)
}

// TestRemoteHitSkipsExecution checks that an entry already present in the
// shared store resolves a miss without simulating and is written through to
// the local disk layer.
func TestRemoteHitSkipsExecution(t *testing.T) {
	remote := newFakeRemote()
	want := &sim.Results{Config: "MASK", TotalIPC: 4.5}
	b, err := EncodeEntry("k", want)
	if err != nil {
		t.Fatal(err)
	}
	remote.m["k"] = b

	dir := t.TempDir()
	c := New(dir)
	c.SetRemote(remote)
	got, err := c.Do("k", func() (*sim.Results, error) {
		t.Fatal("executed despite remote entry")
		return nil, nil
	})
	if err != nil || got.TotalIPC != want.TotalIPC {
		t.Fatalf("got %+v err=%v", got, err)
	}
	s := c.Stats()
	if s.RemoteHits != 1 || s.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want RemoteHits=1 and a disk write-through", s)
	}
	// The written-through entry now serves a fresh cache with no remote.
	c2 := New(dir)
	if _, err := c2.Do("k", func() (*sim.Results, error) {
		t.Fatal("executed despite written-through entry")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRemotePublishAndRejection checks that a computed result is published to
// the store, and that a corrupt remote entry is rejected and recomputed.
func TestRemotePublishAndRejection(t *testing.T) {
	remote := newFakeRemote()
	c := New("")
	c.SetRemote(remote)
	if _, err := c.Do("k", func() (*sim.Results, error) {
		return &sim.Results{TotalIPC: 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.RemotePuts != 1 {
		t.Fatalf("stats = %+v, want RemotePuts=1", s)
	}
	if _, ok := remote.m["k"]; !ok {
		t.Fatal("computed entry not published to the remote store")
	}

	// A fresh cache facing a corrupt remote entry recomputes.
	remote.m["bad"] = []byte("garbage{")
	c2 := New("")
	c2.SetRemote(remote)
	var executed bool
	if _, err := c2.Do("bad", func() (*sim.Results, error) {
		executed = true
		return &sim.Results{TotalIPC: 3}, nil
	}); err != nil || !executed {
		t.Fatalf("err=%v executed=%v, want recompute past corrupt remote entry", err, executed)
	}
	if s := c2.Stats(); s.RemoteErrors != 1 {
		t.Fatalf("stats = %+v, want RemoteErrors=1", s)
	}
}

// TestCanceledNotMemoized checks that a cancellation outcome does not poison
// the key: the next request re-executes, unlike ordinary failures.
func TestCanceledNotMemoized(t *testing.T) {
	c := New("")
	wantErr := fmt.Errorf("run aborted: %w", context.Canceled)
	if _, err := c.Do("k", func() (*sim.Results, error) { return nil, wantErr }); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Do err = %v", err)
	}
	want := &sim.Results{TotalIPC: 9}
	got, err := c.Do("k", func() (*sim.Results, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("after cancellation: got %v err=%v, want a fresh execution", got, err)
	}
	// Deadline expiry behaves the same way.
	if _, err := c.Do("d", func() (*sim.Results, error) { return nil, context.DeadlineExceeded }); err == nil {
		t.Fatal("want deadline error")
	}
	if _, err := c.Do("d", func() (*sim.Results, error) { return want, nil }); err != nil {
		t.Fatalf("deadline outcome memoized: %v", err)
	}
}

// TestDoInfoReportsExecution pins the Executed flag: true only for the
// leader that actually ran the function.
func TestDoInfoReportsExecution(t *testing.T) {
	c := New("")
	_, executed, err := c.DoInfo("k", func() (*sim.Results, error) { return &sim.Results{}, nil })
	if err != nil || !executed {
		t.Fatalf("leader: executed=%v err=%v, want executed=true", executed, err)
	}
	_, executed, err = c.DoInfo("k", func() (*sim.Results, error) { return &sim.Results{}, nil })
	if err != nil || executed {
		t.Fatalf("hit: executed=%v err=%v, want executed=false", executed, err)
	}
}

// TestCachedAnswersFinishedEntries pins Cached against DoInfo: it answers a
// finished entry, success or memoized failure, counting a request and a hit
// as DoInfo's hit does, and answers nothing, counting nothing, for a key with
// no entry or one still in flight.
func TestCachedAnswersFinishedEntries(t *testing.T) {
	c := New("")
	if _, ok, _ := c.Cached("k"); ok {
		t.Fatal("Cached answered a key with no entry")
	}
	release, started := make(chan struct{}), make(chan struct{})
	want := &sim.Results{TotalIPC: 2}
	go c.Do("k", func() (*sim.Results, error) { close(started); <-release; return want, nil })
	<-started
	if _, ok, _ := c.Cached("k"); ok {
		t.Fatal("Cached answered a key still in flight")
	}
	if s := c.Stats(); s.Requests != 1 || s.Hits != 0 {
		t.Fatalf("a miss of Cached counted: %+v", s)
	}
	close(release)
	for {
		if res, ok, err := c.Cached("k"); ok {
			if res != want || err != nil {
				t.Fatalf("Cached = %v, %v, want the shared result", res, err)
			}
			break
		}
		runtime.Gosched()
	}
	wantErr := errors.New("boom")
	c.Do("bad", func() (*sim.Results, error) { return nil, wantErr })
	if _, ok, err := c.Cached("bad"); !ok || !errors.Is(err, wantErr) {
		t.Fatalf("Cached of a memoized failure = %v, %v", ok, err)
	}
	if s := c.Stats(); s.Requests != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want Requests=4 Hits=2 Misses=2", s)
	}
}

// TestValidKey pins the store key shape.
func TestValidKey(t *testing.T) {
	good := RunKey(sim.SharedTLBConfig(), []string{"MM"}, 600)
	if !ValidKey(good) {
		t.Fatalf("real fingerprint %q rejected", good)
	}
	for _, bad := range []string{"", "k", "../../etc/passwd", strings.Repeat("g", 64), strings.Repeat("A", 64)} {
		if ValidKey(bad) {
			t.Fatalf("bad key %q accepted", bad)
		}
	}
}

// TestKeys pins the fingerprint semantics: presentation names don't matter,
// everything else does.
func TestKeys(t *testing.T) {
	base := sim.SharedTLBConfig()
	apps := []string{"MM", "RED"}

	t.Run("deterministic", func(t *testing.T) {
		if RunKey(base, apps, 600) != RunKey(base, apps, 600) {
			t.Fatal("same inputs produced different keys")
		}
	})
	t.Run("name excluded", func(t *testing.T) {
		renamed := base
		renamed.Name = "something-else"
		if RunKey(base, apps, 600) != RunKey(renamed, apps, 600) {
			t.Fatal("Name changed the key; it is presentation-only")
		}
	})
	t.Run("cycles included", func(t *testing.T) {
		if RunKey(base, apps, 600) == RunKey(base, apps, 601) {
			t.Fatal("cycles did not change the key")
		}
	})
	t.Run("apps included", func(t *testing.T) {
		if RunKey(base, apps, 600) == RunKey(base, []string{"MM", "GUP"}, 600) {
			t.Fatal("app list did not change the key")
		}
	})
	t.Run("config included", func(t *testing.T) {
		bigger := base
		bigger.L2TLBEntries *= 2
		if RunKey(base, apps, 600) == RunKey(bigger, apps, 600) {
			t.Fatal("config field did not change the key")
		}
	})
	t.Run("kind separates run and alone", func(t *testing.T) {
		if RunKey(base, []string{"MM"}, 600) == AloneKey(base, "MM", base.Cores, 600) {
			t.Fatal("run and alone keys collided")
		}
	})
	t.Run("alone normalizes static", func(t *testing.T) {
		static := base
		static.Design = sim.DesignStatic
		if AloneKey(base, "MM", 15, 600) != AloneKey(static, "MM", 15, 600) {
			t.Fatal("Static changed the alone key; sim.RunAlone ignores it")
		}
	})
	t.Run("fault plans uncacheable", func(t *testing.T) {
		if !Cacheable(base) {
			t.Fatal("plain config must be cacheable")
		}
		faulty := base
		faulty.FaultPlan = &faultinject.Plan{}
		if Cacheable(faulty) {
			t.Fatal("fault-injected config must not be cacheable")
		}
	})
}
