// Package simcache is the campaign-wide, content-addressed simulation result
// cache behind the experiments harness. A run is identified by a
// deterministic fingerprint of its sim.Config.Key (the simulated Machine and
// the telemetry epoch), application list and cycle budget; requesting the same
// fingerprint twice — from the same experiment or from two different
// experiments sharing one Cache — executes the simulation once and shares the
// completed *sim.Results read-only.
//
// Memoization is single-flight: concurrent requests for one key block on the
// single execution instead of racing to duplicate it. Failures are memoized
// too, so a broken run surfaces once instead of being retried by every
// dependent cell — except cancellations and deadline expiries, which reflect
// the caller's context rather than the simulation, and are forgotten so a
// later request (a new job on a long-running server, say) can try again.
//
// An optional on-disk layer (New with a non-empty dir) persists successful
// results as fingerprint-named JSON entries, written atomically, letting an
// interrupted campaign resume without redoing completed cells. Corrupt or
// version-mismatched entries are rejected and recomputed.
//
// An optional remote layer (SetRemote) consults a shared content-addressed
// store — a maskd server's /v1/cache — after the local layers miss and
// publishes freshly computed entries back, so CI fleets and interactive
// clients dedupe work across machines. The fingerprint keys are
// machine-independent, making entries portable by construction.
package simcache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"masksim/internal/snapshot"
	"masksim/sim"
)

// Stats counts cache traffic. Requests = Hits + InflightWaits + Misses;
// simulations actually executed = Misses - DiskHits - RemoteHits.
type Stats struct {
	// Requests counts lookups.
	Requests uint64
	// Hits counts requests served from an already-completed entry.
	Hits uint64
	// InflightWaits counts requests that joined a computation already running
	// for the same key (single-flight dedup).
	InflightWaits uint64
	// Misses counts requests that became the executing leader for their key.
	Misses uint64
	// DiskHits counts misses resolved from the on-disk cache without
	// simulating.
	DiskHits uint64
	// DiskWrites counts entries persisted to the on-disk cache.
	DiskWrites uint64
	// DiskErrors counts unreadable, corrupt or unwritable disk entries; they
	// are non-fatal (the run is recomputed or simply not persisted).
	DiskErrors uint64
	// RemoteHits counts misses resolved from the shared remote store without
	// simulating.
	RemoteHits uint64
	// RemotePuts counts entries published to the remote store.
	RemotePuts uint64
	// RemoteErrors counts remote entries rejected as corrupt or mismatched;
	// like disk errors they are non-fatal.
	RemoteErrors uint64
}

// RemoteStore is a shared content-addressed entry store, keyed by the same
// machine-independent fingerprints as the disk layer and carrying the same
// serialized entry bytes (EncodeEntry/DecodeEntry). Implementations are
// expected to be best-effort: Get reports ok=false on miss or transport
// failure, Put may drop the entry silently. maskd.StoreClient is the HTTP
// implementation.
type RemoteStore interface {
	Get(key string) (data []byte, ok bool)
	Put(key string, data []byte)
}

// Cache memoizes simulation results by fingerprint. The zero value is not
// usable; construct with New.
type Cache struct {
	dir    string
	remote RemoteStore

	mu      sync.Mutex
	entries map[string]*entry
	stats   Stats
}

// entry is one key's slot: done closes when res/err are final.
type entry struct {
	done chan struct{}
	res  *sim.Results
	err  error
}

// New returns an empty cache. A non-empty dir enables the persistent layer:
// successful results are written there and consulted before simulating.
func New(dir string) *Cache {
	return &Cache{dir: dir, entries: make(map[string]*entry)}
}

// Dir returns the on-disk cache directory ("" when persistence is disabled).
func (c *Cache) Dir() string { return c.dir }

// SetRemote attaches a shared remote store, consulted after the in-memory and
// disk layers miss and published to after each successful execution. Call
// before the cache is in use; a nil store disables the layer.
func (c *Cache) SetRemote(r RemoteStore) { c.remote = r }

// Do returns the memoized outcome for key, computing it with run on first
// request. Concurrent callers of the same key block on the one execution;
// every caller gets the same *sim.Results (shared read-only) and the same
// error. Failures are memoized for the lifetime of the Cache, except
// cancellation/deadline failures, which are forgotten so a later request
// re-executes.
func (c *Cache) Do(key string, run func() (*sim.Results, error)) (*sim.Results, error) {
	res, _, err := c.DoInfo(key, run)
	return res, err
}

// DoInfo is Do plus a report of whether this request became the executing
// leader (executed=true only for the caller whose run function was invoked
// and did not resolve from the disk or remote layer).
func (c *Cache) DoInfo(key string, run func() (*sim.Results, error)) (res *sim.Results, executed bool, err error) {
	c.mu.Lock()
	if e := c.finished(key); e != nil {
		c.mu.Unlock()
		return e.res, false, e.err
	}
	c.stats.Requests++
	if e, ok := c.entries[key]; ok {
		c.stats.InflightWaits++
		c.mu.Unlock()
		<-e.done
		return e.res, false, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.mu.Unlock()

	// Forget canceled/expired outcomes before waking waiters: they describe
	// the requesting context, not the simulation, and memoizing them would
	// poison the key for every future caller of a long-lived cache.
	defer func() {
		if e.err != nil && isContextErr(e.err) {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	if res, ok := c.loadDisk(key); ok {
		e.res = res
		return e.res, false, nil
	}
	if res, ok := c.loadRemote(key); ok {
		e.res = res
		return e.res, false, nil
	}
	e.res, e.err = func() (res *sim.Results, err error) {
		// The harness recovers panics itself; this guard only keeps a
		// panicking run func from wedging every waiter on e.done.
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("simcache: run panicked: %v", r)
			}
		}()
		return run()
	}()
	if e.err == nil && e.res != nil && !e.res.Aborted {
		c.storeDisk(key, e.res)
		c.storeRemote(key, e.res)
	}
	return e.res, true, e.err
}

// Cached is DoInfo's answer for a key whose entry has finished — its memoized
// result or failure, counted as a request and a hit — without waiting or
// running anything: ok is false, and nothing is counted, when the key has no
// entry or its computation is still in flight.
func (c *Cache) Cached(key string) (res *sim.Results, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.finished(key); e != nil {
		return e.res, true, e.err
	}
	return nil, false, nil
}

// finished returns key's entry if its computation has finished, counting the
// request and the hit; c.mu is held.
func (c *Cache) finished(key string) *entry {
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	select {
	case <-e.done:
	default:
		return nil
	}
	c.stats.Requests++
	c.stats.Hits++
	return e
}

// isContextErr reports whether err stems from cancellation or a deadline
// anywhere in its chain.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ---------------------------------------------------------------------------
// Entry serialization — shared by the disk layer, the remote layer, and the
// maskd content-addressed store endpoints.

// diskEntry is the persisted form of one completed run.
type diskEntry struct {
	Version int
	Key     string
	Results *sim.Results
}

// diskVersion invalidates persisted entries when their encoding changes.
const diskVersion = 1

// keyPattern is the shape of every cache fingerprint: lowercase hex SHA-256.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidKey reports whether key has the shape of a cache fingerprint. The
// maskd store uses it to reject path-traversal and garbage keys before
// touching the filesystem.
func ValidKey(key string) bool { return keyPattern.MatchString(key) }

// EncodeEntry serializes a completed result as the canonical entry bytes for
// key — the exact bytes the disk layer persists and the remote store carries.
func EncodeEntry(key string, res *sim.Results) ([]byte, error) {
	return json.Marshal(diskEntry{Version: diskVersion, Key: key, Results: res})
}

// DecodeEntry parses and validates entry bytes for key, rejecting garbage,
// stale versions and entries whose embedded key disagrees with the requested
// one (a swapped or tampered entry must never masquerade as another
// simulation's result).
func DecodeEntry(key string, b []byte) (*sim.Results, error) {
	var de diskEntry
	if err := json.Unmarshal(b, &de); err != nil {
		return nil, fmt.Errorf("simcache: entry for %s: %w", key, err)
	}
	if de.Version != diskVersion {
		return nil, fmt.Errorf("simcache: entry for %s has version %d, want %d", key, de.Version, diskVersion)
	}
	if de.Key != key {
		return nil, fmt.Errorf("simcache: entry claims key %s, requested %s", de.Key, key)
	}
	if de.Results == nil {
		return nil, fmt.Errorf("simcache: entry for %s carries no results", key)
	}
	return de.Results, nil
}

// path names the on-disk entry for key.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// RawEntry returns the serialized on-disk entry bytes for key, validated
// before they are served (a corrupt entry is an error, not a payload). This
// is the read side of the maskd content-addressed store.
func (c *Cache) RawEntry(key string) ([]byte, error) {
	if c.dir == "" {
		return nil, os.ErrNotExist
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, err
	}
	if _, err := DecodeEntry(key, b); err != nil {
		c.countDiskError()
		return nil, err
	}
	return b, nil
}

// PutRawEntry validates and persists serialized entry bytes for key — the
// write side of the maskd content-addressed store. The entry must decode
// cleanly and match key; writes are atomic and durable (WriteFileAtomic into
// an EnsureDir'd directory).
func (c *Cache) PutRawEntry(key string, b []byte) error {
	if c.dir == "" {
		return fmt.Errorf("simcache: no disk layer configured")
	}
	if _, err := DecodeEntry(key, b); err != nil {
		return err
	}
	if err := snapshot.EnsureDir(c.dir); err != nil {
		c.countDiskError()
		return err
	}
	if err := snapshot.WriteFileAtomic(c.path(key), b, 0o644); err != nil {
		c.countDiskError()
		return err
	}
	c.mu.Lock()
	c.stats.DiskWrites++
	c.mu.Unlock()
	return nil
}

// loadDisk tries to resolve key from the persistent layer. Any defect —
// unreadable file, bad JSON, version or key mismatch — rejects the entry and
// falls back to simulating (which then overwrites it).
func (c *Cache) loadDisk(key string) (*sim.Results, bool) {
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.countDiskError()
		}
		return nil, false
	}
	res, err := DecodeEntry(key, b)
	if err != nil {
		c.countDiskError()
		return nil, false
	}
	c.mu.Lock()
	c.stats.DiskHits++
	c.mu.Unlock()
	return res, true
}

// loadRemote tries to resolve key from the shared remote store. A fetched
// entry is validated like a disk entry and, when a disk layer exists, written
// through so later local campaigns skip the network.
func (c *Cache) loadRemote(key string) (*sim.Results, bool) {
	if c.remote == nil {
		return nil, false
	}
	b, ok := c.remote.Get(key)
	if !ok {
		return nil, false
	}
	res, err := DecodeEntry(key, b)
	if err != nil {
		c.mu.Lock()
		c.stats.RemoteErrors++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.stats.RemoteHits++
	c.mu.Unlock()
	c.storeDiskRaw(key, b)
	return res, true
}

// storeDisk persists a successful result durably: snapshot.WriteFileAtomic
// writes a temp file, fsyncs it, renames it into place and fsyncs the
// directory — and the directory itself is created via snapshot.EnsureDir — so
// neither an interrupted write nor a post-rename power loss can leave a
// half-entry (or no entry) where a completed one was reported.
func (c *Cache) storeDisk(key string, res *sim.Results) {
	if c.dir == "" {
		return
	}
	b, err := EncodeEntry(key, res)
	if err != nil {
		c.countDiskError()
		return
	}
	c.storeDiskRaw(key, b)
}

// storeDiskRaw writes already-serialized entry bytes to the disk layer.
func (c *Cache) storeDiskRaw(key string, b []byte) {
	if c.dir == "" {
		return
	}
	if err := snapshot.EnsureDir(c.dir); err != nil {
		c.countDiskError()
		return
	}
	if err := snapshot.WriteFileAtomic(c.path(key), b, 0o644); err != nil {
		c.countDiskError()
		return
	}
	c.mu.Lock()
	c.stats.DiskWrites++
	c.mu.Unlock()
}

// storeRemote publishes a successful result to the shared remote store,
// best-effort.
func (c *Cache) storeRemote(key string, res *sim.Results) {
	if c.remote == nil {
		return
	}
	b, err := EncodeEntry(key, res)
	if err != nil {
		c.mu.Lock()
		c.stats.RemoteErrors++
		c.mu.Unlock()
		return
	}
	c.remote.Put(key, b)
	c.mu.Lock()
	c.stats.RemotePuts++
	c.mu.Unlock()
}

func (c *Cache) countDiskError() {
	c.mu.Lock()
	c.stats.DiskErrors++
	c.mu.Unlock()
}
