package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"masksim/internal/cache"
	"masksim/internal/dram"
	"masksim/internal/engine"
	"masksim/internal/faultinject"
	"masksim/internal/gpu"
	"masksim/internal/memreq"
	"masksim/internal/ptw"
	"masksim/internal/snapshot"
	"masksim/internal/streamio"
	"masksim/internal/telemetry"
	"masksim/internal/tlb"
	"masksim/internal/workload"
)

// ckptScenarios are the drift scenarios of every design the hot path flows
// through plus a demand-paging pair, a fully instrumented MASK run and a
// time-multiplexed cell, so checkpoint/restore equivalence is proven over
// every serialized subsystem. Each runs ckptCycles cycles.
var ckptScenarios = append(driftScenarios[:8:8],
	scenario{name: "paging-MUM+GUP", cfg: func() Config {
		c := SharedTLBConfig()
		c.DemandPaging = true
		c.FaultLatency = 500
		c.FaultConcurrency = 4
		c.TelemetryEpoch = 700
		return c
	}, names: []string{"MUM", "GUP"}, cycles: ckptCycles},
	scenario{name: "mask-instrumented", cfg: func() Config {
		c := MASKConfig()
		c.TelemetryEpoch = 900
		c.TLBPrefetch = true
		c.WatchdogCheckEvery = 1000
		return c
	}, names: []string{"3DS", "CONS"}, cycles: ckptCycles},
	// Figure 1's time multiplexing: every quantum flushes a share of every
	// TLB and cache.
	scenario{name: "timemux-MM", cfg: func() Config {
		c := SharedTLBConfig()
		c.TimeMuxQuantum, c.TimeMuxEvict = 1000, 0.36
		return c
	}, names: []string{"MM"}, cycles: ckptCycles},
)

// The checkpointed run of a scenario: ckptCycles cycles with a checkpoint
// every ckptEvery, which does not divide the run, so a resumed run restarts
// mid-span (checkpoints at 1700 and 3400; a resume runs the last 600).
const ckptCycles, ckptEvery = 4000, 1700

// ckptRun is what a checkpointed run leaves: its Results, the number of
// checkpoints it took, and the image of each by cycle.
type ckptRun struct {
	once   sync.Once
	res    *Results
	taken  int
	images map[int64][]byte
}

var (
	ckptRunsMu sync.Mutex
	ckptRuns   = map[string]*ckptRun{}
)

// checkpointedRun returns the checkpointed run of sc with fast-forward ff,
// simulated once per test binary: TestCheckpointRestoreEquivalence and
// TestRestoreCheckpointFixpoint both start from it.
func checkpointedRun(t *testing.T, sc scenario, ff bool) *ckptRun {
	t.Helper()
	key := fmt.Sprintf("%s/ff=%t", sc.name, ff)
	ckptRunsMu.Lock()
	r := ckptRuns[key]
	if r == nil {
		r = new(ckptRun)
		ckptRuns[key] = r
	}
	ckptRunsMu.Unlock()
	r.once.Do(func() {
		cfg := sc.cfg()
		cfg.FastForward = ff
		cfg.CheckpointEvery, cfg.CheckpointDir = ckptEvery, t.TempDir()
		s := prepareScenario(t, cfg, sc.names, sc.alone)
		res := s.mustRun(t, ckptCycles)
		images := map[int64][]byte{}
		for at := int64(ckptEvery); at < ckptCycles; at += ckptEvery {
			data, err := os.ReadFile(s.checkpointPath(at))
			if err != nil {
				t.Fatal(err)
			}
			images[at] = data
		}
		r.res, r.taken, r.images = res, s.CheckpointStats().Taken, images
	})
	if r.res == nil {
		t.Fatalf("the checkpointed run of %s failed in an earlier test", key)
	}
	return r
}

func (s *Simulator) mustRun(t *testing.T, cycles int64) *Results {
	t.Helper()
	res, err := s.Run(context.Background(), cycles)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func prepareScenario(t *testing.T, cfg Config, names []string, alone int) *Simulator {
	t.Helper()
	var (
		s   *Simulator
		err error
	)
	if alone > 0 {
		s, err = PrepareAlone(cfg, names[0], alone)
	} else {
		s, err = Prepare(cfg, names)
	}
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return s
}

// TestCheckpointRestoreEquivalence is the acceptance test of docs/MODEL.md §9:
// checkpoint at cycle k, restore in a fresh simulator, run to completion —
// the Results must be deeply equal to an uninterrupted run's, across every
// scenario and with fast-forward both on and off. The checkpoint interval is
// chosen to not divide the run length, so the resumed run restarts mid-span.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	for _, sc := range ckptScenarios {
		for _, ff := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/ff=%t", sc.name, ff), func(t *testing.T) {
				t.Parallel()
				cfg := sc.cfg()
				cfg.FastForward = ff
				ref := uninterruptedRun(t, sc, ff)

				run := checkpointedRun(t, sc, ff)
				if !reflect.DeepEqual(ref, run.res) {
					t.Fatalf("taking checkpoints perturbed the run:\nref:  %+v\nfull: %+v", ref, run.res)
				}
				if run.taken != 2 {
					t.Fatalf("expected 2 checkpoints taken, got %d", run.taken)
				}

				rsCfg := cfg
				rsCfg.CheckpointEvery, rsCfg.CheckpointDir, rsCfg.Resume = ckptEvery, t.TempDir(), true
				rsSim := prepareScenario(t, rsCfg, sc.names, sc.alone)
				for at, data := range run.images {
					if err := os.WriteFile(rsSim.checkpointPath(at), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				resumed := rsSim.mustRun(t, ckptCycles)
				if rsSim.CheckpointStats().Restored != 1 {
					t.Fatalf("resume did not adopt a checkpoint: %+v", rsSim.CheckpointStats())
				}
				if rsSim.eng.Now() != ckptCycles {
					t.Fatalf("resumed run ended at cycle %d, want %d", rsSim.eng.Now(), ckptCycles)
				}
				if !reflect.DeepEqual(ref, resumed) {
					t.Fatalf("restored run diverged from uninterrupted run:\nref:     %+v\nresumed: %+v", ref, resumed)
				}
			})
		}
	}
}

// TestCheckpointStreamRoundTrip checkpoints directly to a buffer (no files)
// and restores it, proving the Checkpoint/RestoreCheckpoint API works
// standalone at an arbitrary cycle.
func TestCheckpointStreamRoundTrip(t *testing.T) {
	const cycles = 3000
	cfg := MASKConfig()
	ref := prepareScenario(t, cfg, []string{"3DS", "CONS"}, 0).mustRun(t, cycles)

	dir := t.TempDir()
	ckCfg := cfg
	ckCfg.CheckpointEvery = 1300
	ckCfg.CheckpointDir = dir
	src := prepareScenario(t, ckCfg, []string{"3DS", "CONS"}, 0)
	src.mustRun(t, cycles)

	data, err := os.ReadFile(src.checkpointPath(2600))
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	dst := prepareScenario(t, cfg, []string{"3DS", "CONS"}, 0)
	if err := dst.RestoreCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if dst.eng.Now() != 2600 {
		t.Fatalf("restored to cycle %d, want 2600", dst.eng.Now())
	}
	resumed := dst.mustRun(t, cycles)
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatalf("stream-restored run diverged:\nref:     %+v\nresumed: %+v", ref, resumed)
	}
}

// TestRestoreCheckpointFixpoint restores a checkpoint and checkpoints again
// without stepping: the two images must be the same bytes. Plain state is
// its own image, but what an image writes differently — requests inline,
// translations by key, queues, sets — is converted per component by hand;
// this is the one oracle that covers every field of every component at
// once — a field one side forgets, or a set written in map order, shows up
// as a difference.
func TestRestoreCheckpointFixpoint(t *testing.T) {
	for _, sc := range ckptScenarios {
		t.Run(sc.name, func(t *testing.T) {
			first := checkpointedRun(t, sc, true).images[ckptEvery]
			dst := prepareScenario(t, sc.cfg(), sc.names, sc.alone)
			if err := dst.RestoreCheckpoint(bytes.NewReader(first)); err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := dst.Checkpoint(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second.Bytes()) {
				t.Errorf("checkpoint of the restored simulator differs: %s", payloadDiff(t, first, second.Bytes()))
			}
		})
	}
}

// payloadDiff names the payload fields in which two checkpoint files differ:
// comparing the bytes says nothing about where.
func payloadDiff(t *testing.T, a, b []byte) string {
	t.Helper()
	pa, pb := decodePayload(t, a), decodePayload(t, b)
	va, vb := reflect.ValueOf(pa), reflect.ValueOf(pb)
	var fields []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			fields = append(fields, va.Type().Field(i).Name)
		}
	}
	if len(fields) == 0 {
		return "equal when decoded"
	}
	return "fields " + strings.Join(fields, ", ")
}

// TestCheckpointBytesDeterministic builds each scenario twice, runs both to
// the same cycle and requires their checkpoints to be the same bytes: an
// image holds no map and no interface, so nothing in it depends on iteration
// order. The last case is a crash dump whose telemetry carries the fault and
// watchdog events, the one part of the image built from maps.
func TestCheckpointBytesDeterministic(t *testing.T) {
	const cycles, at = 2000, 1500
	image := func(t *testing.T, cfg Config, names []string, alone int) []byte {
		cfg.CheckpointEvery = at
		cfg.CheckpointDir = t.TempDir()
		s := prepareScenario(t, cfg, names, alone)
		s.mustRun(t, cycles)
		data, err := os.ReadFile(s.checkpointPath(at))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, sc := range ckptScenarios {
		t.Run(sc.name, func(t *testing.T) {
			a, b := image(t, sc.cfg(), sc.names, sc.alone), image(t, sc.cfg(), sc.names, sc.alone)
			if !bytes.Equal(a, b) {
				t.Fatalf("two simulators of one cell wrote different checkpoints at cycle %d: %s", at, payloadDiff(t, a, b))
			}
		})
	}
	t.Run("crash-dump-with-events", func(t *testing.T) {
		crash := func() []byte {
			cfg := MASKConfig()
			cfg.Cores, cfg.WarpsPerCore = 2, 8
			cfg.TelemetryEpoch = 500
			cfg.WatchdogCheckEvery = 500
			cfg.FaultPlan = &faultinject.Plan{WedgePTWAfter: 200}
			cfg.CheckpointDir = t.TempDir()
			s := prepareScenario(t, cfg, []string{"3DS", "CONS"}, 0)
			if _, err := s.Run(context.Background(), 200_000); err == nil {
				t.Fatal("wedged run completed without abort")
			}
			data, err := os.ReadFile(s.crashCheckpointPath())
			if err != nil {
				t.Fatal(err)
			}
			if p := decodePayload(t, data); p.Telemetry == nil || len(p.Telemetry.Events) < 2 {
				t.Fatalf("crash dump carries no telemetry events")
			}
			return data
		}
		if a, b := crash(), crash(); !bytes.Equal(a, b) {
			t.Fatalf("two crash dumps of one wedged cell differ: %s", payloadDiff(t, a, b))
		}
	})
}

// TestCheckpointRejection proves every way a checkpoint file can be unusable
// is rejected with a structured error and a clean start — never a panic, and
// never silently adopting garbage.
func TestCheckpointRejection(t *testing.T) {
	const cycles = 3000
	cfg := SharedTLBConfig()
	names := []string{"MUM", "GUP"}
	ref := prepareScenario(t, cfg, names, 0).mustRun(t, cycles)

	// Produce a valid checkpoint set to mutilate.
	makeDir := func(t *testing.T) string {
		dir := t.TempDir()
		c := cfg
		c.CheckpointEvery = 1300
		c.CheckpointDir = dir
		prepareScenario(t, c, names, 0).mustRun(t, cycles)
		return dir
	}
	resumeClean := func(t *testing.T, dir string, wantRejected int) {
		t.Helper()
		c := cfg
		c.CheckpointEvery = 1300
		c.CheckpointDir = dir
		c.Resume = true
		s := prepareScenario(t, c, names, 0)
		res := s.mustRun(t, cycles)
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("fallback run diverged from reference")
		}
		if got := s.CheckpointStats().Rejected; got < wantRejected {
			t.Fatalf("expected >= %d rejected checkpoints, got %d", wantRejected, got)
		}
	}

	t.Run("corrupt-byte", func(t *testing.T) {
		dir := makeDir(t)
		// Flip a byte in the newest checkpoint: resume must reject it with
		// ErrChecksum and fall back to the older one, still matching the
		// reference bit-for-bit.
		path, err := faultinject.CorruptCheckpointByte(dir, 1234)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := os.ReadFile(path)
		if _, _, err := snapshot.Decode(data); !errors.Is(err, snapshot.ErrChecksum) {
			t.Fatalf("corrupted file decoded with err=%v, want ErrChecksum", err)
		}
		c := cfg
		c.CheckpointEvery = 1300
		c.CheckpointDir = dir
		c.Resume = true
		s := prepareScenario(t, c, names, 0)
		res := s.mustRun(t, cycles)
		if s.CheckpointStats().Rejected != 1 || s.CheckpointStats().Restored != 1 {
			t.Fatalf("want 1 rejected + fallback restore, got %+v", s.CheckpointStats())
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("fallback-restored run diverged from reference")
		}
	})

	t.Run("all-corrupt-falls-back-clean", func(t *testing.T) {
		dir := makeDir(t)
		// Corrupt one byte in every checkpoint file (CorruptCheckpointByte
		// targets the newest; after it runs, touch the other by hand).
		ents, _ := os.ReadDir(dir)
		if len(ents) != 2 {
			t.Fatalf("expected 2 checkpoints, found %d", len(ents))
		}
		for _, e := range ents {
			p := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(p)
			data[len(data)/2] ^= 0xFF
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Both periodic checkpoints now corrupt: clean start, same results.
		resumeClean(t, dir, 2)
	})

	t.Run("truncated", func(t *testing.T) {
		dir := makeDir(t)
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			p := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(p)
			if err := os.WriteFile(p, data[:len(data)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		resumeClean(t, dir, 2)
	})

	t.Run("not-a-checkpoint", func(t *testing.T) {
		dir := makeDir(t)
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("definitely not a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		resumeClean(t, dir, 2)
	})

	t.Run("version-mismatch", func(t *testing.T) {
		dir := makeDir(t)
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			p := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(p)
			// Stamp a future version and re-seal the checksum so the only
			// defect is the version field.
			data[4] = 0xFE
			resealChecksum(data)
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var ve *snapshot.VersionError
			if _, _, err := snapshot.Decode(data); !errors.As(err, &ve) {
				t.Fatalf("restamped file decoded with err=%v, want *VersionError", err)
			}
		}
		resumeClean(t, dir, 2)
	})

	// Files stamped with an earlier format are rejected by version, before
	// any of their payload is decoded: v2 requests carry Site/SiteRef, not a
	// sink index; v3 payloads are a request registry plus a map of per-ticker
	// states; v4 payloads carry pool images, pool IDs and free-list lengths;
	// v5 payloads carry a second time series beside the telemetry; v6
	// payloads carry frames in TLB entries and held walks, and an ASID in
	// every request; v7 requests name their sink by engine registration
	// index; v8 retry lists and queues are plain lists of requests, keys and
	// walks, and the bank and L2 TLB input queues carry pipe items; v9 cache
	// images carry latency sums and histogram images a sample sum; v10
	// images write lines, entries, walks, faults and warps as mirror structs
	// with flat page keys, and a histogram's buckets as a slice; v11 images
	// write the clock's cycle, the token policy's per-app epoch flags and
	// each warp's pending-translation count; v12 images write beside each walk
	// and fault-held walk the key of the translation it completes (Tr),
	// where v13 writes the walk's Core.
	for _, old := range []uint32{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		t.Run(fmt.Sprintf("previous-format-v%d", old), func(t *testing.T) {
			dir := makeDir(t)
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				p := filepath.Join(dir, e.Name())
				data, _ := os.ReadFile(p)
				binary.LittleEndian.PutUint32(data[4:], old)
				resealChecksum(data)
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
				var ve *snapshot.VersionError
				if _, _, err := snapshot.Decode(data); !errors.As(err, &ve) || ve.Got != old || ve.Want != snapshot.Version {
					t.Fatalf("v%d-stamped file decoded with err=%v, want *VersionError{Got: %d, Want: %d}", old, err, old, snapshot.Version)
				}
				s := prepareScenario(t, cfg, names, 0)
				if err := s.RestoreCheckpoint(bytes.NewReader(data)); !errors.As(err, &ve) {
					t.Fatalf("RestoreCheckpoint of a v%d file: err=%v, want *VersionError", old, err)
				}
			}
			resumeClean(t, dir, 2)
		})
	}

	t.Run("wrong-simulation", func(t *testing.T) {
		// A checkpoint from a different config must not restore even if the
		// file is pristine.
		dir := makeDir(t)
		pathCfg := cfg
		pathCfg.CheckpointDir = dir
		data, err := os.ReadFile(prepareScenario(t, pathCfg, names, 0).checkpointPath(2600))
		if err != nil {
			t.Fatal(err)
		}
		s := prepareScenario(t, MASKConfig(), names, 0)
		if err := s.RestoreCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrWrongSimulation) {
			t.Fatalf("cross-config restore err=%v, want ErrWrongSimulation", err)
		}
	})

	t.Run("wrong-budget", func(t *testing.T) {
		dir := makeDir(t)
		c := cfg
		c.CheckpointEvery = 1300
		c.CheckpointDir = dir
		c.Resume = true
		s := prepareScenario(t, c, names, 0)
		// Different total budget: both checkpoints rejected, clean start.
		if _, err := s.Run(context.Background(), cycles+1000); err != nil {
			t.Fatalf("run: %v", err)
		}
		if got := s.CheckpointStats(); got.Restored != 0 || got.Rejected != 2 {
			t.Fatalf("want 0 restored / 2 rejected under budget mismatch, got %+v", got)
		}
	})
}

// firstReturning returns the first request image that returns to a sink of
// type T, failing the test if there is none.
func firstReturning[T memreq.Sink](t *testing.T, p *checkpointPayload, sinks *memreq.Pool) *memreq.Request {
	t.Helper()
	d, ok := returningTo[T](p, sinks, func(*memreq.Request) bool { return true })
	if !ok {
		t.Fatalf("no live request returns to a %T", *new(T))
	}
	return d
}

// liveWalkOf returns the first unfinished walk of the given origin.
func liveWalkOf(t *testing.T, p *checkpointPayload, origin ptw.WalkOrigin) *ptw.Walk {
	t.Helper()
	walks := make([]*ptw.Walk, 0, len(p.Walker.Active)+len(p.Walker.Pending))
	for i := range p.Walker.Active {
		walks = append(walks, &p.Walker.Active[i])
	}
	for i := range p.Walker.Pending {
		walks = append(walks, &p.Walker.Pending[i].Value)
	}
	for _, ws := range walks {
		if !ws.Finished && ws.Origin == origin {
			return ws
		}
	}
	t.Fatalf("no live walk of origin %d", origin)
	return nil
}

// takeQueuedTrans removes a translation from the queue an L1 TLB retries it
// from, or else from the L2 TLB's stalled queue, and returns its key: a
// translation the caller may hand to another holder.
func takeQueuedTrans(t *testing.T, p *checkpointPayload) memreq.TransKey {
	t.Helper()
	for c := range p.L1TLBs {
		if q := p.L1TLBs[c].Pending; len(q) > 0 {
			p.L1TLBs[c].Pending = q[1:]
			return memreq.TransKey{Core: int32(c), VPN: q[0].Value}
		}
	}
	if q := p.L2TLB.Stalled; len(q) > 0 {
		p.L2TLB.Stalled = q[1:]
		return q[0].Value
	}
	t.Fatal("no translation waits in an L1 TLB's retry queue or the L2 TLB's stalled queue")
	return memreq.TransKey{}
}

// l1Miss is an L1 TLB miss image with waiters, and the core whose TLB holds
// it.
type l1Miss struct {
	*tlb.L1MissState
	core int
}

// firstL1Miss returns the first L1 TLB miss image with a waiter.
func firstL1Miss(t *testing.T, p *checkpointPayload) l1Miss {
	t.Helper()
	for c := range p.L1TLBs {
		for i := range p.L1TLBs[c].Mshrs {
			if m := &p.L1TLBs[c].Mshrs[i]; len(m.Waiting) > 0 {
				return l1Miss{m, c}
			}
		}
	}
	t.Fatal("no L1 TLB miss has a waiter")
	return l1Miss{}
}

// smokeTrace is the repository's smallest trace.
const smokeTrace = "../internal/workload/testdata/smoke.trace"

// newTracePair builds a simulator whose two apps both replay the trace at
// path.
func newTracePair(t *testing.T, cfg Config, path string) *Simulator {
	t.Helper()
	ts, err := workload.LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, []workload.App{{ID: 0, Trace: ts}, {ID: 1, Trace: ts}}, EvenSplit(cfg.Cores, 2))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTraceCheckpointResume checkpoints a trace-driven pair: the resumed run
// equals the uninterrupted one, the trace's .mtb conversion is the same
// simulation, and a same-named trace of other content is another one.
func TestTraceCheckpointResume(t *testing.T) {
	const cycles = 4000
	cfg := tinyConfig()
	ref := newTracePair(t, cfg, smokeTrace).mustRun(t, cycles)

	ckCfg := cfg
	ckCfg.CheckpointEvery, ckCfg.CheckpointDir = 1700, t.TempDir()
	src := newTracePair(t, ckCfg, smokeTrace)
	src.mustRun(t, cycles)
	image, err := os.ReadFile(src.checkpointPath(3400))
	if err != nil {
		t.Fatal(err)
	}

	// The same trace stored as .mtb resumes the image to the same end.
	ts, err := workload.LoadTraceFile(smokeTrace)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var mtb bytes.Buffer
	if err := ts.EncodeMTB(&mtb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "smoke.mtb"), mtb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := newTracePair(t, cfg, filepath.Join(dir, "smoke.mtb"))
	if err := dst.RestoreCheckpoint(bytes.NewReader(image)); err != nil {
		t.Fatalf("restore onto the .mtb conversion: %v", err)
	}
	if got := dst.mustRun(t, cycles); !reflect.DeepEqual(ref, got) {
		t.Fatalf("resumed run diverged:\nref:     %+v\nresumed: %+v", ref, got)
	}

	// A trace of the same name and other content is another simulation.
	var text bytes.Buffer
	other := &workload.TraceSet{Warps: ts.Warps[:len(ts.Warps)/2]}
	if err := other.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	otherPath := filepath.Join(t.TempDir(), "smoke.trace")
	if err := os.WriteFile(otherPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := newTracePair(t, cfg, otherPath).RestoreCheckpoint(bytes.NewReader(image)); !errors.Is(err, ErrWrongSimulation) {
		t.Fatalf("restore onto a same-named other trace: %v, want ErrWrongSimulation", err)
	}
}

// TestRestoreRejectsHostileState drives impossible images — requests naming
// sinks that do not exist, translation keys that name no tracker or are held
// twice, return routes that lead nowhere — past the envelope checksum:
// the gob payload is decoded, edited and re-sealed, so the file is valid in
// every respect except the state it encodes. Each must surface as a
// structured error from RestoreCheckpoint, never a panic, an unbounded
// allocation or silent adoption.
func TestRestoreRejectsHostileState(t *testing.T) {
	const cycles = 3000
	cfg := SharedTLBConfig()
	pagingCfg := cfg
	pagingCfg.DemandPaging, pagingCfg.FaultLatency, pagingCfg.FaultConcurrency = true, 500, 4
	prefetchCfg := cfg
	prefetchCfg.TLBPrefetch = true
	names := []string{"MUM", "GUP"}
	type image struct {
		h       snapshot.Header
		payload []byte
		sinks   *memreq.Pool
	}
	// The images a case may edit, indexed by its on field: SharedTLB, demand
	// paging, MASK (DRAM class queues, TLB-fill tokens), the shared-TLB
	// prefetcher, trace replay, and the crash dump of a SharedTLB run whose
	// walker wedged.
	const (
		onShared = iota
		onPaging
		onMASK
		onPrefetch
		onTrace
		onCrash
	)
	// prepare builds the simulator of image on: the trace image replays
	// smoke.trace as both apps, every other one runs names.
	prepare := func(on int, cfg Config) *Simulator {
		if on == onTrace {
			return newTracePair(t, cfg, smokeTrace)
		}
		return prepareScenario(t, cfg, names, 0)
	}
	take := func(on int, cfg Config) image {
		ckCfg := cfg
		ckCfg.CheckpointEvery = 1300
		ckCfg.CheckpointDir = t.TempDir()
		var src *Simulator
		var path string
		if on == onCrash {
			ckCfg.FaultPlan = &faultinject.Plan{WedgePTWAfter: 300}
			src = prepare(on, ckCfg)
			if _, err := src.Run(context.Background(), 60_000); !errors.As(err, new(*engine.DeadlockError)) {
				t.Fatalf("wedged run returned %v, want a DeadlockError", err)
			}
			path = src.crashCheckpointPath()
		} else {
			src = prepare(on, ckCfg)
			src.mustRun(t, cycles)
			path = src.checkpointPath(2600)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h, payload, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return image{h, payload, &src.reqPool}
	}
	crashCfg := cfg
	crashCfg.WatchdogCheckEvery = 500
	cfgs := [...]Config{onShared: cfg, onPaging: pagingCfg, onMASK: MASKConfig(), onPrefetch: prefetchCfg, onTrace: cfg, onCrash: crashCfg}
	var images [len(cfgs)]image
	for i, c := range cfgs {
		images[i] = take(i, c)
	}
	sinks := images[onShared].sinks
	// A key no L1 TLB miss tracks, and a request image that returns nowhere
	// the simulator has.
	untracked := memreq.TransKey{Core: 0, VPN: 1 << 40}
	const noTracker = "names the translation of vpn 0x10000000000 by core 0, which no L1 TLB miss tracks"
	badSink := memreq.Request{Ret: 1 << 15}
	const noSink = "returns to sink 32768, which is not a sink"

	cases := []struct {
		name   string
		on     int // the image to edit
		mutate func(t *testing.T, p *checkpointPayload)
		want   string // "" = must restore
	}{
		{"untouched", onShared, func(t *testing.T, p *checkpointPayload) {}, ""},
		{"untouched MASK", onMASK, func(t *testing.T, p *checkpointPayload) {}, ""},
		{"untouched prefetcher", onPrefetch, func(t *testing.T, p *checkpointPayload) {}, ""},
		// Shape: an image whose component list is not the simulator's is
		// rejected before any restore could dereference a missing image or
		// index past a short list. One row per line of checkShape.
		{"fewer cores", onShared, func(t *testing.T, p *checkpointPayload) { p.Cores = p.Cores[:len(p.Cores)-1] },
			"differ in their cores"},
		{"fewer L1 TLBs", onShared, func(t *testing.T, p *checkpointPayload) { p.L1TLBs = p.L1TLBs[:1] },
			"differ in their L1 TLBs"},
		{"fewer L1 data caches", onShared, func(t *testing.T, p *checkpointPayload) { p.L1Ds = nil },
			"differ in their L1 data caches"},
		{"missing L2 TLB", onShared, func(t *testing.T, p *checkpointPayload) { p.L2TLB = nil },
			"differ in their L2 TLB"},
		{"fault unit without demand paging", onShared, func(t *testing.T, p *checkpointPayload) { p.Faults = &ptw.FaultUnitState{} },
			"differ in their fault unit"},
		{"missing fault unit", onPaging, func(t *testing.T, p *checkpointPayload) { p.Faults = nil },
			"differ in their fault unit"},
		{"page walk cache outside PWCache", onShared, func(t *testing.T, p *checkpointPayload) { p.PWC = &cache.CacheState{} },
			"differ in their page walk cache"},
		{"telemetry without a collector", onShared, func(t *testing.T, p *checkpointPayload) { p.Telemetry = &telemetry.CollectorState{} },
			"differ in their telemetry collector"},
		{"extra group sync", onShared, func(t *testing.T, p *checkpointPayload) { p.Syncs = append(p.Syncs, workload.GroupSyncState{}) },
			"differ in their group syncs"},
		{"L2 bypass state without the policy", onShared, func(t *testing.T, p *checkpointPayload) { p.ATA = &cache.ATAState{} },
			"differ in their L2 bypass policy"},
		// Every container of requests, one case each: the image it writes
		// inline must name a sink the simulator has.
		{"core retry reference", onShared, func(t *testing.T, p *checkpointPayload) {
			p.Cores[0].Retry = append(p.Cores[0].Retry, engine.QueueItem[memreq.Request]{Value: badSink})
		}, noSink},
		{"cache bank queue reference", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2C.Queues[0] = append(p.L2C.Queues[0], engine.QueueItem[memreq.Request]{Value: memreq.Request{Ret: 1<<16 - 1}})
		}, "returns to sink 65535, which is not a sink"},
		{"cache MSHR waiter reference", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L1Ds[0].Mshrs = append(p.L1Ds[0].Mshrs, cache.MSHRState{LineAddr: 1 << 50, Waiting: []memreq.Request{badSink}})
		}, noSink},
		{"dram queue reference", onShared, func(t *testing.T, p *checkpointPayload) {
			q := &p.DRAM.Channels[0].Sched.Normal
			*q = append(*q, dram.QueuedState{Req: badSink})
		}, noSink},
		// Every holder of a translation key, one case each, a key naming a
		// core that has no L1 TLB, and a key two holders name: the resumed
		// run would complete that translation twice.
		{"l1 pending reference", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L1TLBs[0].Pending = append(p.L1TLBs[0].Pending, engine.QueueItem[uint64]{Value: untracked.VPN})
		}, noTracker},
		{"l2 stalled reference", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Stalled = append(p.L2TLB.Stalled, engine.QueueItem[memreq.TransKey]{Value: untracked})
		}, noTracker},
		{"l2 pipe key names no tracker", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.In = append(p.L2TLB.In, engine.QueueItem[memreq.TransKey]{Ready: 1, Value: untracked})
		}, noTracker},
		{"l2 MSHR key names no tracker", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Mshrs = append(p.L2TLB.Mshrs, []memreq.TransKey{untracked})
		}, noTracker},
		{"l2 MSHR without a requester", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Mshrs = append(p.L2TLB.Mshrs, nil)
		}, "L2 TLB miss without a requester"},
		{"walk transreq reference", onShared, func(t *testing.T, p *checkpointPayload) {
			ws := liveWalkOf(t, p, ptw.OriginL2Miss)
			ws.Origin, ws.Core, ws.VPN = ptw.OriginTrans, untracked.Core, untracked.VPN
		}, noTracker},
		{"fault-held walk key names no tracker", onPaging, func(t *testing.T, p *checkpointPayload) {
			p.Faults.Queue = append(p.Faults.Queue, engine.QueueItem[ptw.PendingFault]{Value: ptw.PendingFault{Fault: ptw.Fault{Key: memreq.PageKey{ASID: 1, VPN: untracked.VPN}}, Notify: []ptw.HeldWalk{
				{Origin: ptw.OriginTrans, Core: untracked.Core},
			}}})
		}, noTracker},
		{"transreq names a core without an L1 TLB", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Stalled = append(p.L2TLB.Stalled, engine.QueueItem[memreq.TransKey]{Value: memreq.TransKey{Core: 1 << 20}})
		}, "tlb: checkpoint names the L1 TLB of core 1048576"},
		{"translation held twice", onShared, func(t *testing.T, p *checkpointPayload) {
			for _, reqs := range p.L2TLB.Mshrs {
				if len(reqs) > 0 {
					p.L2TLB.Stalled = append(p.L2TLB.Stalled, engine.QueueItem[memreq.TransKey]{Value: reqs[0]})
					return
				}
			}
			t.Fatal("no L2 TLB miss holds a translation")
		}, "names one translation from two holders"},
		// A translation no holder names: its L1 TLB miss would never close,
		// and the warps waiting on it would wait forever.
		{"L2 TLB input translation dropped", onShared, func(t *testing.T, p *checkpointPayload) {
			if len(p.L2TLB.In) == 0 {
				t.Fatal("the L2 TLB's input pipe is empty")
			}
			p.L2TLB.In = p.L2TLB.In[1:]
		}, "has a translation no queue, miss, walk or fault holds"},
		{"L2 TLB stalled translation dropped", onShared, func(t *testing.T, p *checkpointPayload) {
			if len(p.L2TLB.Stalled) == 0 {
				t.Fatal("the L2 TLB's stalled queue is empty")
			}
			p.L2TLB.Stalled = p.L2TLB.Stalled[1:]
		}, "has a translation no queue, miss, walk or fault holds"},
		// Return routes: the sink index must name a sink restored after the
		// request's holder, and the sink must hold the state it resumes.
		{"request of a class no request has", onShared, func(t *testing.T, p *checkpointPayload) { requestImages(p)[0].Class = 2 },
			"class 2, walk level"},
		{"request deeper than the page table", onShared, func(t *testing.T, p *checkpointPayload) { requestImages(p)[0].WalkLevel = memreq.MaxWalkLevel + 1 },
			"walk level 5, which no request has"},
		{"sink index out of range", onShared, func(t *testing.T, p *checkpointPayload) { requestImages(p)[0].Ret = 1 << 15 },
			"returns to sink 32768, which is not a sink"},
		{"sink index names a non-sink", onShared, func(t *testing.T, p *checkpointPayload) {
			// The route one past the last sink the simulator registered.
			rt := memreq.Route(1)
			for sinks.Sink(rt) != nil {
				rt++
			}
			requestImages(p)[0].Ret = rt
		}, "which is not a sink"},
		{"request returns to a sink restored before its holder", onShared, func(t *testing.T, p *checkpointPayload) {
			d := *firstReturning[*cache.Cache](t, p, sinks)
			p.Cores[0].Retry = append(p.Cores[0].Retry, engine.QueueItem[memreq.Request]{Value: d})
		}, "which restored before the component holding it"},
		{"walk serial names no walk", onShared, func(t *testing.T, p *checkpointPayload) {
			firstReturning[*ptw.Walker](t, p, sinks).Tag = 1 << 60
		}, "returns to walk 1152921504606846976, which awaits no read"},
		{"bypass tag names no MSHR", onShared, func(t *testing.T, p *checkpointPayload) {
			firstReturning[*cache.Cache](t, p, sinks).Tag = 1
		}, "tag 1) has no MSHR"},
		{"request returns to a warp the core lacks", onShared, func(t *testing.T, p *checkpointPayload) {
			firstReturning[*gpu.Core](t, p, sinks).WarpID = 1 << 20
		}, "warp 1048576 is not one of"},
		// Identities: every holder of a request, walk or fault-held walk must
		// name an app, core and warp the simulator has, and a walk's app and
		// address space the same app. Components index per-app state by them:
		// a DRAM request of app 2^40 used to grow the per-app bus counters
		// until the process ran out of memory.
		{"core retry request of a core the simulator lacks", onShared, func(t *testing.T, p *checkpointPayload) {
			p.Cores[0].Retry = append(p.Cores[0].Retry, engine.QueueItem[memreq.Request]{Value: memreq.Request{CoreID: 1 << 20}})
		}, "app 0, core 1048576, warp 0 is not one of 2 apps"},
		{"cache bank request of a warp the cores lack", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2C.Queues[0] = append(p.L2C.Queues[0], engine.QueueItem[memreq.Request]{Value: memreq.Request{WarpID: -1}})
		}, "app 0, core 0, warp -1 is not one of 2 apps"},
		{"cache MSHR waiter of an app the simulator lacks", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L1Ds[0].Mshrs = append(p.L1Ds[0].Mshrs, cache.MSHRState{LineAddr: 1 << 50, Waiting: []memreq.Request{{AppID: 2}}})
		}, "app 2, core 0, warp 0 is not one of 2 apps"},
		{"dram request of an app the simulator lacks", onShared, func(t *testing.T, p *checkpointPayload) {
			q := &p.DRAM.Channels[0].Sched.Normal
			*q = append(*q, dram.QueuedState{Req: memreq.Request{AppID: 1 << 40}})
		}, "app 1099511627776, core 0, warp 0 is not one of 2 apps"},
		{"dram bus counters of more apps", onShared, func(t *testing.T, p *checkpointPayload) { p.DRAM.PerAppBus = append(p.DRAM.PerAppBus, 0) },
			"dram: checkpoint counts bus cycles of 3 apps, model has 2"},
		{"pending walk of an app the simulator lacks", onShared, func(t *testing.T, p *checkpointPayload) {
			if len(p.Walker.Pending) == 0 {
				t.Fatal("no walk waits for a walker slot")
			}
			p.Walker.Pending[0].Value.AppID = 1 << 40
		}, "walk of app 1099511627776 in address space 1, which names no app of 2"},
		{"active walk of another app's address space", onShared, func(t *testing.T, p *checkpointPayload) {
			ws := liveWalkOf(t, p, ptw.OriginL2Miss)
			ws.AppID = 1 - ws.AppID
		}, "names no app of 2"},
		{"fault-held walk of another app's address space", onPaging, func(t *testing.T, p *checkpointPayload) {
			for i := range p.Faults.Inflight {
				if ns := p.Faults.Inflight[i].Notify; len(ns) > 0 {
					ns[0].AppID = 1 - ns[0].AppID
					return
				}
			}
			t.Fatal("no fault in service holds a walk")
		}, "holds a walk of app"},
		// A watchdog that has reached its stall limit is a crash dump's:
		// evidence, not a state to resume.
		{"watchdog past its stall limit", onShared, func(t *testing.T, p *checkpointPayload) { p.Watchdog.Stalled = 7 },
			"watchdog crash dump (stall limit reached): 7 checks without progress"},
		{"crash dump", onCrash, func(t *testing.T, p *checkpointPayload) {},
			"watchdog crash dump (stall limit reached): 4 checks without progress"},
		// The clock: its ticked and skipped cycles add up to the cycle the
		// envelope header names, and neither is negative.
		{"clock off its header's cycle", onShared, func(t *testing.T, p *checkpointPayload) { p.Clock.Ticked++ },
			"sim: checkpoint clock is at cycle 2601"},
		{"negative clock count", onShared, func(t *testing.T, p *checkpointPayload) {
			p.Clock.Ticked, p.Clock.Skipped = -1, p.Clock.Ticked+p.Clock.Skipped+1
		}, "sim: checkpoint clock has a negative count (-1 ticked"},
		// Continuations held as (warp, slot) pairs and walk origins: the core
		// and the shared TLB they lead to must still wait for them.
		{"l1 waiter names a slot its warp does not await", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L1TLBs[0].Mshrs = append(p.L1TLBs[0].Mshrs, tlb.L1MissState{VPN: untracked.VPN, Waiting: []tlb.WaiterState{{Warp: 0, Slot: 1 << 20}}})
		}, "waits for warp 0 slot 1048576, which awaits no translation there"},
		{"l1 waiter names another page's slot", onShared, func(t *testing.T, p *checkpointPayload) {
			m := firstL1Miss(t, p)
			p.L1TLBs[m.core].Mshrs = append(p.L1TLBs[m.core].Mshrs, tlb.L1MissState{VPN: m.VPN + 12345, Waiting: m.Waiting[:1]})
		}, "which awaits no translation there for that page"},
		{"l1 miss lists a waiter twice", onShared, func(t *testing.T, p *checkpointPayload) {
			m := firstL1Miss(t, p)
			m.Waiting = append(m.Waiting, m.Waiting[0])
		}, "twice"},
		{"L1 miss without a waiter", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L1TLBs[0].Mshrs = append(p.L1TLBs[0].Mshrs, tlb.L1MissState{VPN: untracked.VPN})
		}, "checkpoint L1 miss for vpn 0x10000000000 has no waiter"},
		{"warp slot on an unmapped page", onShared, func(t *testing.T, p *checkpointPayload) {
			for i := range p.Cores {
				for j := range p.Cores[i].Warps {
					if ws := &p.Cores[i].Warps[j]; len(ws.Pages) > 0 {
						ws.Pages[0] = []uint64{1 << 52}
						return
					}
				}
			}
			t.Fatal("no warp awaits a translation")
		}, "has a page slot on vpn 0x10000000000, which address space"},
		{"warp awaits pages no L1 TLB miss translates", onShared, func(t *testing.T, p *checkpointPayload) {
			for _, c := range p.Cores {
				for i := range c.Warps {
					for j := range c.Warps {
						if len(c.Warps[i].Pages) > 0 && len(c.Warps[j].Pages) == 0 {
							c.Warps[j].Pages = c.Warps[i].Pages
							return
						}
					}
				}
			}
			t.Fatal("no core has a warp that awaits a translation beside one that does not")
		}, "instruction, but no L1 TLB miss waits for it"},
		{"walk on an unmapped page", onShared, func(t *testing.T, p *checkpointPayload) {
			liveWalkOf(t, p, ptw.OriginL2Miss).VPN = 1 << 40
		}, "walk (asid 1, vpn 0x10000000000) is of a page its address space does not map"},
		{"demand walk without an L2 TLB tracker", onShared, func(t *testing.T, p *checkpointPayload) {
			ws := liveWalkOf(t, p, ptw.OriginL2Miss)
			p.L2TLB.Mshrs = slices.DeleteFunc(p.L2TLB.Mshrs, func(reqs []memreq.TransKey) bool { return reqs[0].VPN == ws.VPN })
		}, "has nothing waiting for its result"},
		{"L2 TLB miss no demand walk fills", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Mshrs = append(p.L2TLB.Mshrs, []memreq.TransKey{takeQueuedTrans(t, p)})
		}, "has no demand walk to fill it"},
		// Occupancies past what the component can hold: more MSHRs than the
		// cache has, a bank or channel queue longer than its capacity. The
		// added requests are valid so that nothing else is wrong with the
		// image.
		{"more MSHRs than the cache has", onShared, func(t *testing.T, p *checkpointPayload) {
			st := &p.L1Ds[0]
			for i := len(st.Mshrs); i <= cfg.L1Cache.MSHRs; i++ {
				st.Mshrs = append(st.Mshrs, cache.MSHRState{LineAddr: 1<<50 + uint64(i)})
			}
		}, "checkpoint has " + strconv.Itoa(cfg.L1Cache.MSHRs+1) + " MSHRs, capacity is " + strconv.Itoa(cfg.L1Cache.MSHRs)},
		// One line fetch imaged as two MSHRs: restoring the second over the
		// first would drop the first one's waiters.
		{"cache MSHR line twice", onShared, func(t *testing.T, p *checkpointPayload) {
			sts := []*cache.CacheState{&p.L2C}
			for i := range p.L1Ds {
				sts = append(sts, &p.L1Ds[i])
			}
			for _, st := range sts {
				if len(st.Mshrs) > 0 {
					st.Mshrs = append(st.Mshrs, st.Mshrs[0])
					return
				}
			}
			t.Fatal("no cache has an MSHR")
		}, "checkpoint has two MSHRs of line"},
		{"bypass MSHR line twice", onMASK, func(t *testing.T, p *checkpointPayload) {
			st := &p.L2C
			if len(st.BypassMshrs) == 0 {
				t.Fatal("the L2 cache has no bypass MSHR")
			}
			st.BypassMshrs = append(st.BypassMshrs, st.BypassMshrs[0])
		}, "checkpoint has two bypass MSHRs of line"},
		{"bank queue past its capacity", onShared, func(t *testing.T, p *checkpointPayload) {
			st := &p.L1Ds[0]
			for len(st.Queues[0]) <= cfg.L1Cache.QueueCap {
				st.Queues[0] = append(st.Queues[0], engine.QueueItem[memreq.Request]{})
			}
		}, "checkpoint bank 0 queues " + strconv.Itoa(cfg.L1Cache.QueueCap+1) + " requests, capacity is " + strconv.Itoa(cfg.L1Cache.QueueCap)},
		{"dram queue past its capacity", onShared, func(t *testing.T, p *checkpointPayload) {
			q := &p.DRAM.Channels[1].Sched.Normal
			for len(*q) <= cfg.DRAM.QueueCap {
				*q = append(*q, dram.QueuedState{})
			}
		}, "dram: channel 1: dram: checkpoint request queue holds " + strconv.Itoa(cfg.DRAM.QueueCap+1) + " requests, capacity is " + strconv.Itoa(cfg.DRAM.QueueCap)},
		// States no run reaches, which would otherwise restore and run on: a
		// shared-TLB miss split in two, one merging two pages, a fault unit
		// or walker past its slots, a page faulting twice, and the L2 TLB's
		// input queue past its capacity. The translations they move are
		// valid, so the shape is the only defect.
		{"L2 TLB tracker split in two", onShared, func(t *testing.T, p *checkpointPayload) {
			for i, reqs := range p.L2TLB.Mshrs {
				if len(reqs) > 1 {
					p.L2TLB.Mshrs[i] = reqs[:1]
					p.L2TLB.Mshrs = append(p.L2TLB.Mshrs, reqs[1:])
					return
				}
			}
			t.Fatal("no L2 TLB miss has two requesters")
		}, "checkpoint has two L2 TLB misses of asid"},
		{"L2 TLB tracker merges another page", onShared, func(t *testing.T, p *checkpointPayload) {
			k := takeQueuedTrans(t, p)
			for i, reqs := range p.L2TLB.Mshrs {
				if reqs[0].VPN != k.VPN {
					p.L2TLB.Mshrs[i] = append(reqs, k)
					return
				}
			}
			t.Fatal("no L2 TLB miss is of another page")
		}, "merges a requester of vpn"},
		{"faults in service past the concurrency", onPaging, func(t *testing.T, p *checkpointPayload) {
			for _, it := range p.Faults.Queue {
				p.Faults.Inflight = append(p.Faults.Inflight, it.Value)
			}
			p.Faults.Queue = nil
			if len(p.Faults.Inflight) <= pagingCfg.FaultConcurrency {
				t.Fatalf("only %d faults pending", len(p.Faults.Inflight))
			}
		}, "faults in service, concurrency is 4"},
		{"page faulting twice", onPaging, func(t *testing.T, p *checkpointPayload) {
			if len(p.Faults.Inflight) == 0 {
				t.Fatal("no fault in flight")
			}
			twice := p.Faults.Inflight[0]
			twice.Notify, twice.DoneAt = nil, 0
			p.Faults.Queue = append(p.Faults.Queue, engine.QueueItem[ptw.PendingFault]{Ready: twice.Start, Value: twice})
		}, "checkpoint has two faults of asid"},
		// A fault's service ends Latency after it starts, at a cycle the run
		// has ticked; a queued fault has not started; every fault holds the
		// walk that opened it, of a page that is not resident.
		{"fault in service ending past its latency", onPaging, func(t *testing.T, p *checkpointPayload) {
			if len(p.Faults.Inflight) == 0 {
				t.Fatal("no fault in flight")
			}
			p.Faults.Inflight[0].DoneAt = 1 << 62
		}, "first touched at cycle 259, ends at cycle 4611686018427387904, not in [2600, 3099]"},
		{"queued fault holding no walk", onPaging, func(t *testing.T, p *checkpointPayload) {
			p.Faults.Queue = append(p.Faults.Queue, engine.QueueItem[ptw.PendingFault]{Value: ptw.PendingFault{Fault: ptw.Fault{Key: memreq.PageKey{ASID: 1, VPN: untracked.VPN}, Start: 2500}}})
		}, "fault of asid 1, vpn 0x10000000000 holds no walk"},
		{"fault of a resident page", onPaging, func(t *testing.T, p *checkpointPayload) {
			if len(p.Faults.Inflight) == 0 {
				t.Fatal("no fault in flight")
			}
			p.Faults.Resident = append(p.Faults.Resident, p.Faults.Inflight[0].Key)
		}, "is of a resident page"},
		{"queued fault with a completion cycle", onPaging, func(t *testing.T, p *checkpointPayload) {
			if len(p.Faults.Queue) == 0 {
				t.Fatal("no fault queued")
			}
			p.Faults.Queue[0].Value.DoneAt = 2700
		}, "queued fault of asid 1, vpn 0x29c440 ends at cycle 2700"},
		{"active walks past the walker's slots", onShared, func(t *testing.T, p *checkpointPayload) {
			done := p.Walker.Active[0]
			done.Finished, done.Waiting = true, false
			for len(p.Walker.Active) <= walkerConcurrency {
				p.Walker.Active = append(p.Walker.Active, done)
			}
		}, "active walks, the walker has " + strconv.Itoa(walkerConcurrency) + " slots"},
		{"L2 TLB input queue past its capacity", onShared, func(t *testing.T, p *checkpointPayload) {
			for len(p.L2TLB.In) <= l2TLBQueueCap {
				p.L2TLB.In = append(p.L2TLB.In, engine.QueueItem[memreq.TransKey]{Value: takeQueuedTrans(t, p)})
			}
		}, "tlb: checkpoint L2 TLB input queues " + strconv.Itoa(l2TLBQueueCap+1) + " requests, capacity is " + strconv.Itoa(l2TLBQueueCap)},
		// Per-app state of another length than the configuration's apps,
		// policy state of a mechanism the configuration lacks or has, and
		// policy state out of its range.
		{"L2 TLB counters of fewer apps", onShared, func(t *testing.T, p *checkpointPayload) { p.L2TLB.Apps = p.L2TLB.Apps[:1] },
			"L2 TLB counters of 1 apps, configuration has 2"},
		{"L2 TLB counters of more apps", onShared, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Apps = append(p.L2TLB.Apps, tlb.AppTLBCounters{})
		}, "L2 TLB counters of 3 apps, configuration has 2"},
		{"token lists shorter than the apps", onMASK, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Tokens.Dir = p.L2TLB.Tokens.Dir[:1]
		}, "token state has 2/2/1 per-app entries, policy has 2 apps"},
		{"missing token lists", onMASK, func(t *testing.T, p *checkpointPayload) { p.L2TLB.Tokens.TokensPerCore = nil },
			"token state has 0/2/2 per-app entries, policy has 2 apps"},
		{"missing token image", onShared, func(t *testing.T, p *checkpointPayload) { p.L2TLB.Tokens = nil },
			"differ in their TLB-fill token policy"},
		{"prefetcher table past its capacity", onPrefetch, func(t *testing.T, p *checkpointPayload) {
			pf := p.L2TLB.Prefetch
			for i := len(pf.Entries); i < 5000; i++ {
				pf.Entries = append(pf.Entries, tlb.PfEntryState{Key: memreq.PageKey{ASID: 1, VPN: 1<<40 + uint64(i)}, Next: 1})
			}
		}, "checkpoint has 5000 prefetcher entries, capacity is 1024"},
		{"prefetcher key repeated", onPrefetch, func(t *testing.T, p *checkpointPayload) {
			es := p.L2TLB.Prefetch.Entries
			if len(es) < 2 {
				t.Fatal("the prefetcher image has fewer than two entries")
			}
			es[len(es)-1].Key = es[0].Key
		}, "duplicate prefetcher entry"},
		{"negative silver turn app", onMASK, func(t *testing.T, p *checkpointPayload) { p.DRAM.Channels[0].Sched.SilverApp = -1 },
			"dram: channel 0: dram: silver turn (app -1, quota"},
		{"negative silver quota", onMASK, func(t *testing.T, p *checkpointPayload) { p.DRAM.Channels[2].Sched.SilverQuota = -1 },
			"quota -1) out of range (2 apps)"},
		// Stream cursors: a replay cursor or gap the trace has not, a
		// replay cursor on a synthetic stream, a page cursor past the app's
		// pages, and a group barrier of another member count.
		{"untouched trace", onTrace, func(t *testing.T, p *checkpointPayload) {}, ""},
		{"replay cursor past the trace", onTrace, func(t *testing.T, p *checkpointPayload) { p.Cores[0].Warps[0].Stream.ReplayPos = 1 << 20 },
			"gpu: core 0 warp 0: workload: replay cursor 1048576 outside a"},
		{"replay gap of no entry", onTrace, func(t *testing.T, p *checkpointPayload) { p.Cores[0].Warps[0].Stream.ReplayGap = 1 << 20 },
			"workload: replay gap 1048576, but the entry before cursor"},
		{"replay cursor on a synthetic stream", onShared, func(t *testing.T, p *checkpointPayload) { p.Cores[0].Warps[0].Stream.ReplayPos = 1 },
			"workload: replay cursor 1 (gap 0) on a synthetic stream"},
		{"page cursor past the app's pages", onShared, func(t *testing.T, p *checkpointPayload) { p.Cores[0].Warps[0].Stream.CurPage = 1 << 40 },
			"workload: page cursor 1099511627776 past the app's"},
		{"group sync of fewer members", onShared, func(t *testing.T, p *checkpointPayload) { p.Syncs[0].Steps = p.Syncs[0].Steps[:1] },
			"workload: group sync image has 1 members"},
		{"group sync of more members", onShared, func(t *testing.T, p *checkpointPayload) { p.Syncs[0].Steps = append(p.Syncs[0].Steps, 0) },
			"members, the group"},
	}
	// The image of each simulator as New builds it: a rejected restore must
	// leave its simulator with exactly this.
	var fresh [len(cfgs)][]byte
	for i, c := range cfgs {
		var b bytes.Buffer
		if err := prepare(i, c).Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		fresh[i] = b.Bytes()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, c := images[tc.on], cfgs[tc.on]
			dst := prepare(tc.on, c)
			err := dst.RestoreCheckpoint(bytes.NewReader(resealed(t, img.h, img.payload, tc.mutate)))
			if strings.Contains(tc.want, "watchdog crash dump") && !errors.Is(err, ErrWatchdogTripped) {
				t.Fatalf("error %v, want ErrWatchdogTripped", err)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if tc.want == "" {
				dst.mustRun(t, cycles) // the adopted image must also run on
				return
			}
			var left bytes.Buffer
			if err := dst.Checkpoint(&left); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(left.Bytes(), fresh[tc.on]) {
				t.Fatalf("the rejected restore left state behind: %s", payloadDiff(t, fresh[tc.on], left.Bytes()))
			}
		})
	}
}

// resealed returns the checkpoint file of header h over payload as mutate
// edits it: the gob payload is decoded, edited and re-sealed, so the file is
// valid in every respect except the state it encodes.
func resealed(t *testing.T, h snapshot.Header, payload []byte, mutate func(*testing.T, *checkpointPayload)) []byte {
	t.Helper()
	var p checkpointPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		t.Fatal(err)
	}
	mutate(t, &p)
	var body, file bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&p); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Write(&file, h, body.Bytes()); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// resealChecksum recomputes the trailing SHA-256 over a mutated envelope so
// tests can craft files whose only defect is the field under test.
func resealChecksum(data []byte) {
	sum := snapshot.Seal(data[:len(data)-32])
	copy(data[len(data)-32:], sum)
}

// TestRestoreFromDirFallsBack resumes from a directory whose newest
// checkpoint holds a state no run reaches — a group barrier of one member
// more than its group, which restore finds after every component and the
// clock are restored — and whose older one is good. The rejected image must
// leave nothing behind, so the run adopts the older one and ends as the
// uninterrupted run does, its streamed telemetry included.
func TestRestoreFromDirFallsBack(t *testing.T) {
	moreMembers := func(t *testing.T, data []byte) []byte {
		h, payload, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return resealed(t, h, payload, func(t *testing.T, p *checkpointPayload) {
			p.Syncs[0].Steps = append(p.Syncs[0].Steps, 0)
		})
	}
	wantStats := func(t *testing.T, s *Simulator) {
		t.Helper()
		if st := s.CheckpointStats(); st.Rejected != 1 || st.Restored != 1 {
			t.Fatalf("want the newest checkpoint rejected and the older one restored, got %+v", st)
		}
	}

	t.Run("results", func(t *testing.T) {
		sc := driftScenarios[1] // sharedtlb-MUM+GUP
		run := checkpointedRun(t, sc, true)
		cfg := sc.cfg()
		cfg.FastForward = true
		cfg.CheckpointDir, cfg.Resume = t.TempDir(), true
		s := prepareScenario(t, cfg, sc.names, sc.alone)
		for at, data := range run.images {
			if at == ckptCycles/ckptEvery*ckptEvery {
				data = moreMembers(t, data)
			}
			if err := os.WriteFile(s.checkpointPath(at), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		res := s.mustRun(t, ckptCycles)
		wantStats(t, s)
		if ref := uninterruptedRun(t, sc, true); !reflect.DeepEqual(ref, res) {
			t.Fatalf("run resumed from the older checkpoint diverged:\nref:     %+v\nresumed: %+v", ref, res)
		}
	})

	t.Run("streamed-csv", func(t *testing.T) {
		const cycles, every = 4000, 1300
		names := []string{"3DS", "CONS"}
		dir := t.TempDir()
		csvPath := filepath.Join(dir, "tel.csv")
		// stream runs cfg into csvPath, opened with open, and returns the
		// simulator once the run has ended (a run that panics ends early).
		stream := func(cfg Config, open func(string) (io.WriteCloser, error)) *Simulator {
			sink := telemetry.NewStreamSink()
			f, err := open(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := sink.Attach(telemetry.FormatCSV, f); err != nil {
				t.Fatal(err)
			}
			cfg.TelemetrySink = sink
			s := prepareScenario(t, cfg, names, 0)
			defer func() {
				if cfg.FaultPlan != nil && recover() == nil {
					t.Fatal("injected panic did not fire")
				}
			}()
			s.mustRun(t, cycles)
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			return s
		}
		stream(streamTestConfig(), streamio.Create)
		ref, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}

		// A run that dies at cycle 3000 leaves checkpoints at 1300 and 2600
		// and the stream as far as it got; the newest checkpoint is then
		// corrupted.
		ckCfg := streamTestConfig()
		ckCfg.CheckpointEvery, ckCfg.CheckpointDir = every, dir
		ckCfg.FaultPlan = &faultinject.Plan{PanicAtCycle: 3000}
		stream(ckCfg, streamio.Create)
		newest, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("*-%012d.ckpt", 2*every)))
		if len(newest) != 1 {
			t.Fatalf("the killed run left %d checkpoints at cycle %d", len(newest), 2*every)
		}
		data, err := os.ReadFile(newest[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newest[0], moreMembers(t, data), 0o644); err != nil {
			t.Fatal(err)
		}

		rsCfg := streamTestConfig()
		rsCfg.CheckpointDir, rsCfg.Resume = dir, true
		rs := stream(rsCfg, streamio.CreateResumable)
		wantStats(t, rs)
		got, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("stream resumed from the older checkpoint differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(ref))
		}
	})
}

// TestWatchdogCrashCheckpoint wedges the page-table walker so the watchdog
// aborts, then proves that (a) a crash dump was written at the abort cycle,
// (b) restoring it is rejected with ErrWatchdogTripped — a dump is evidence,
// not a resume point — and (c) Resume skips it.
func TestWatchdogCrashCheckpoint(t *testing.T) {
	const cycles = 60_000
	cfg := SharedTLBConfig()
	cfg.WatchdogCheckEvery = 2000
	cfg.CheckpointDir = t.TempDir()
	cfg.FaultPlan = &faultinject.Plan{WedgePTWAfter: 3000}
	names := []string{"MUM", "GUP"}

	s := prepareScenario(t, cfg, names, 0)
	res, err := s.Run(context.Background(), cycles)
	var dead *engine.DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("wedged run returned %v, want DeadlockError", err)
	}
	if !res.Aborted {
		t.Fatal("aborted run did not set Results.Aborted")
	}

	// The dump holds the state at the abort cycle.
	dump := s.crashCheckpointPath()
	info, err := InspectCheckpoint(dump)
	if err != nil {
		t.Fatal(err)
	}
	if info.Err != nil || !info.PayloadOK {
		t.Fatalf("crash dump unreadable: %v / %v", info.Err, info.PayloadErr)
	}
	if now := info.Clock.Ticked + info.Clock.Skipped; info.Header.Cycle != dead.Cycle || now != dead.Cycle {
		t.Fatalf("crash dump at cycle %d (clock %d), abort was at %d", info.Header.Cycle, now, dead.Cycle)
	}

	// Restoring it is refused before any state is touched.
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	s2 := prepareScenario(t, cfg, names, 0)
	if err := s2.RestoreCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrWatchdogTripped) {
		t.Fatalf("restoring the crash dump returned %v, want ErrWatchdogTripped", err)
	}
	if s2.eng.Now() != 0 || s2.CheckpointStats().Restored != 0 {
		t.Fatalf("rejected restore moved the clock to %d / counted %+v", s2.eng.Now(), s2.CheckpointStats())
	}

	// Only the watchdog marks the dump as a crash: the wedged walk is still
	// active, so its shared-TLB miss has a demand walk and every translation
	// a holder, and with the count reset the state restores.
	h, payload, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	reset := resealed(t, h, payload, func(_ *testing.T, p *checkpointPayload) { p.Watchdog.Stalled = 0 })
	if err := prepareScenario(t, cfg, names, 0).RestoreCheckpoint(bytes.NewReader(reset)); err != nil {
		t.Fatalf("restoring the crash dump's state under a reset watchdog: %v", err)
	}

	// Resume must not adopt the crash dump: with no periodic checkpoints in
	// the directory the run starts clean (and wedges again on its own).
	c := cfg
	c.Resume = true
	c.FaultPlan = &faultinject.Plan{WedgePTWAfter: 3000}
	s3 := prepareScenario(t, c, names, 0)
	if _, err := s3.Run(context.Background(), cycles); err == nil {
		t.Fatal("wedged rerun unexpectedly succeeded")
	}
	if st := s3.CheckpointStats(); st.Restored != 0 || st.Rejected != 0 {
		t.Fatalf("resume looked at the crash dump: %+v", st)
	}
}

// TestWatchdogIntervalAcrossRestore pins that the watchdog interval is a run
// option, outside the fingerprint: a checkpoint taken under one interval is
// adopted by Resume under another or with the watchdog off, an unsupervised
// checkpoint by a supervised run, and each resumed run's Results are deeply
// equal to the uninterrupted run's. A crash dump stays rejected with
// ErrWatchdogTripped whatever the restoring run's interval.
func TestWatchdogIntervalAcrossRestore(t *testing.T) {
	// One checkpoint at 30 000, after the watchdog's first check at 25 000.
	const cycles, every = 50_000, 30_000
	names := []string{"3DS", "CONS"}
	cfg := tinyConfig()
	cfg.WatchdogCheckEvery = 25_000
	ref := prepareScenario(t, cfg, names, 0).mustRun(t, cycles)

	checkpointed := func(interval int64) string {
		c := cfg
		c.WatchdogCheckEvery = interval
		c.CheckpointEvery, c.CheckpointDir = every, t.TempDir()
		if res := prepareScenario(t, c, names, 0).mustRun(t, cycles); !reflect.DeepEqual(ref, res) {
			t.Fatalf("the checkpointed run under watchdog interval %d diverged", interval)
		}
		return c.CheckpointDir
	}
	resume := func(dir string, interval int64) {
		t.Helper()
		c := cfg
		c.WatchdogCheckEvery = interval
		c.CheckpointDir, c.Resume = dir, true
		s := prepareScenario(t, c, names, 0)
		res := s.mustRun(t, cycles)
		if st := s.CheckpointStats(); st.Restored != 1 || st.Rejected != 0 {
			t.Fatalf("resume under watchdog interval %d did not adopt the checkpoint: %+v", interval, st)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("run resumed under watchdog interval %d diverged:\nref:     %+v\nresumed: %+v", interval, ref, res)
		}
	}
	supervised := checkpointed(25_000)
	resume(supervised, 10_000)
	resume(supervised, 0)
	resume(checkpointed(0), 25_000)

	crash := cfg
	crash.WatchdogCheckEvery = 2000
	crash.CheckpointDir = t.TempDir()
	crash.FaultPlan = &faultinject.Plan{WedgePTWAfter: 3000}
	s := prepareScenario(t, crash, []string{"MUM", "GUP"}, 0)
	var dead *engine.DeadlockError
	if _, err := s.Run(context.Background(), cycles); !errors.As(err, &dead) {
		t.Fatalf("wedged run returned %v, want DeadlockError", err)
	}
	dump, err := os.ReadFile(s.crashCheckpointPath())
	if err != nil {
		t.Fatal(err)
	}
	for _, interval := range []int64{0, 2000, 10_000, 25_000} {
		c := crash
		c.WatchdogCheckEvery = interval
		c.FaultPlan = nil
		if err := prepareScenario(t, c, []string{"MUM", "GUP"}, 0).RestoreCheckpoint(bytes.NewReader(dump)); !errors.Is(err, ErrWatchdogTripped) {
			t.Fatalf("restoring the crash dump under watchdog interval %d returned %v, want ErrWatchdogTripped", interval, err)
		}
	}
}

// TestConcurrentRestoreIsolation restores the same checkpoint bytes into
// several simulators running concurrently (run under -race in CI): restored
// requests must come from per-instance pools with zero sharing.
func TestConcurrentRestoreIsolation(t *testing.T) {
	const cycles = 3000
	cfg := MASKConfig()
	names := []string{"3DS", "CONS"}

	dir := t.TempDir()
	c := cfg
	c.CheckpointEvery = 1300
	c.CheckpointDir = dir
	src := prepareScenario(t, c, names, 0)
	ref := src.mustRun(t, cycles)
	data, err := os.ReadFile(src.checkpointPath(1300))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	results := make([]*Results, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := prepareScenario(t, cfg, names, 0)
			if err := s.RestoreCheckpoint(bytes.NewReader(data)); err != nil {
				t.Errorf("worker %d restore: %v", i, err)
				return
			}
			res, err := s.Run(context.Background(), cycles)
			if err != nil {
				t.Errorf("worker %d run: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("worker %d diverged from reference", i)
		}
	}
}

// TestCheckpointBudgetMismatch ensures a restored simulator refuses to run
// with a different cycle budget than the interrupted run.
func TestCheckpointBudgetMismatch(t *testing.T) {
	const cycles = 3000
	cfg := SharedTLBConfig()
	names := []string{"MUM", "GUP"}
	dir := t.TempDir()
	c := cfg
	c.CheckpointEvery = 1300
	c.CheckpointDir = dir
	src := prepareScenario(t, c, names, 0)
	src.mustRun(t, cycles)
	data, err := os.ReadFile(src.checkpointPath(1300))
	if err != nil {
		t.Fatal(err)
	}
	s := prepareScenario(t, cfg, names, 0)
	if err := s.RestoreCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), cycles*2); err == nil {
		t.Fatal("budget-mismatched resume unexpectedly succeeded")
	}
}
