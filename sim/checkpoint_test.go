package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
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
	"masksim/internal/telemetry"
	"masksim/internal/tlb"
	"masksim/internal/workload"
)

// ckptScenarios mirror the drift scenarios (every design the hot path flows
// through) plus a demand-paging pair and a fully instrumented MASK run, so
// checkpoint/restore equivalence is proven over every serialized subsystem.
var ckptScenarios = []struct {
	name  string
	cfg   func() Config
	names []string
	alone int // >0: single-app alone run on this many cores
}{
	{name: "mask-3DS+CONS", cfg: MASKConfig, names: []string{"3DS", "CONS"}},
	{name: "sharedtlb-MUM+GUP", cfg: SharedTLBConfig, names: []string{"MUM", "GUP"}},
	{name: "pwcache-3DS+CONS", cfg: PWCacheConfig, names: []string{"3DS", "CONS"}},
	{name: "static-RED+BP", cfg: StaticConfig, names: []string{"RED", "BP"}},
	{name: "alone-3DS", cfg: SharedTLBConfig, names: []string{"3DS"}, alone: 30},
	{name: "alone-GUP", cfg: SharedTLBConfig, names: []string{"GUP"}, alone: 30},
	{name: "alone-NN", cfg: SharedTLBConfig, names: []string{"NN"}, alone: 30},
	{name: "alone-MUM", cfg: SharedTLBConfig, names: []string{"MUM"}, alone: 30},
	{name: "paging-MUM+GUP", cfg: func() Config {
		c := SharedTLBConfig()
		c.DemandPaging = true
		c.FaultLatency = 500
		c.FaultConcurrency = 4
		return c
	}, names: []string{"MUM", "GUP"}},
	{name: "mask-instrumented", cfg: func() Config {
		c := MASKConfig()
		c.TraceInterval = 700
		c.TelemetryEpoch = 900
		c.TLBPrefetch = true
		c.WatchdogCheckEvery = 1000
		return c
	}, names: []string{"3DS", "CONS"}},
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
	const cycles = 4000
	const every = 1700 // checkpoints at 1700 and 3400; resume runs the last 600

	for _, sc := range ckptScenarios {
		for _, ff := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/ff=%t", sc.name, ff), func(t *testing.T) {
				cfg := sc.cfg()
				cfg.FastForward = ff
				ref := prepareScenario(t, cfg, sc.names, sc.alone).mustRun(t, cycles)

				dir := t.TempDir()
				ckCfg := cfg
				ckCfg.CheckpointEvery = every
				ckCfg.CheckpointDir = dir
				ckSim := prepareScenario(t, ckCfg, sc.names, sc.alone)
				full := ckSim.mustRun(t, cycles)
				if !reflect.DeepEqual(ref, full) {
					t.Fatalf("taking checkpoints perturbed the run:\nref:  %+v\nfull: %+v", ref, full)
				}
				if got := ckSim.CheckpointStats().Taken; got != 2 {
					t.Fatalf("expected 2 checkpoints taken, got %d", got)
				}

				rsCfg := ckCfg
				rsCfg.Resume = true
				rsSim := prepareScenario(t, rsCfg, sc.names, sc.alone)
				resumed := rsSim.mustRun(t, cycles)
				if rsSim.CheckpointStats().Restored != 1 {
					t.Fatalf("resume did not adopt a checkpoint: %+v", rsSim.CheckpointStats())
				}
				if rsSim.Engine().Now() != cycles {
					t.Fatalf("resumed run ended at cycle %d, want %d", rsSim.Engine().Now(), cycles)
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
	if dst.Engine().Now() != 2600 {
		t.Fatalf("restored to cycle %d, want 2600", dst.Engine().Now())
	}
	resumed := dst.mustRun(t, cycles)
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatalf("stream-restored run diverged:\nref:     %+v\nresumed: %+v", ref, resumed)
	}
}

// TestRestoreCheckpointFixpoint restores a checkpoint and checkpoints again
// without stepping: the two images must be the same bytes. Restore and
// snapshot are written field by field, per component, by hand; this is the
// one oracle that covers every field of every component at once — a field
// one side forgets, or a set written in map order, shows up as a difference.
func TestRestoreCheckpointFixpoint(t *testing.T) {
	const cycles, at = 4000, 1700
	for _, sc := range ckptScenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg()
			ckCfg := cfg
			ckCfg.CheckpointEvery = at
			ckCfg.CheckpointDir = t.TempDir()
			src := prepareScenario(t, ckCfg, sc.names, sc.alone)
			src.mustRun(t, cycles)
			first, err := os.ReadFile(src.checkpointPath(at))
			if err != nil {
				t.Fatal(err)
			}
			dst := prepareScenario(t, cfg, sc.names, sc.alone)
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
			cfg.WatchdogCheckEvery, cfg.WatchdogStallChecks = 500, 2
			cfg.FaultPlan = &faultinject.Plan{WedgePTWAfter: 200}
			cfg.CheckpointDir = t.TempDir()
			s := prepareScenario(t, cfg, []string{"3DS", "CONS"}, 0)
			if _, err := s.Run(context.Background(), 200_000); err == nil {
				t.Fatal("wedged run completed without abort")
			}
			data, err := os.ReadFile(s.CrashCheckpointPath())
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
	// states; v4 payloads carry pool images, pool IDs and free-list lengths.
	for _, old := range []uint32{2, 3, 4} {
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
func firstReturning[T memreq.Sink](t *testing.T, p *checkpointPayload, sinks []memreq.Sink) *memreq.RequestState {
	t.Helper()
	d, ok := returningTo[T](p, sinks, func(*memreq.RequestState) bool { return true })
	if !ok {
		t.Fatalf("no live request returns to a %T", *new(T))
	}
	return d
}

// liveWalkOf returns the first unfinished walk of the given origin.
func liveWalkOf(t *testing.T, p *checkpointPayload, origin ptw.WalkOrigin) *ptw.WalkState {
	t.Helper()
	for _, ws := range [][]ptw.WalkState{p.Walker.Active, p.Walker.Pending} {
		for i := range ws {
			if !ws[i].Finished && ptw.WalkOrigin(ws[i].Origin) == origin {
				return &ws[i]
			}
		}
	}
	t.Fatalf("no live walk of origin %d", origin)
	return nil
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
	names := []string{"MUM", "GUP"}
	type image struct {
		h       snapshot.Header
		payload []byte
		sinks   []memreq.Sink
	}
	take := func(cfg Config) image {
		ckCfg := cfg
		ckCfg.CheckpointEvery = 1300
		ckCfg.CheckpointDir = t.TempDir()
		src := prepareScenario(t, ckCfg, names, 0)
		src.mustRun(t, cycles)
		data, err := os.ReadFile(src.checkpointPath(2600))
		if err != nil {
			t.Fatal(err)
		}
		h, payload, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return image{h, payload, src.wiring().Sinks}
	}
	shared, paging := take(cfg), take(pagingCfg)
	sinks := shared.sinks
	// A key no L1 TLB miss tracks, and a request image that returns nowhere
	// the simulator has.
	untracked := memreq.TransKey{Core: 0, VPN: 1 << 40}
	const noTracker = "names the translation of vpn 0x10000000000 by core 0, which no L1 TLB miss tracks"
	badSink := memreq.RequestState{Sink: 1<<20 + 1}
	const noSink = "returns to ticker 1048576, which is not a sink"

	cases := []struct {
		name   string
		paging bool // edit the demand-paging image instead
		mutate func(t *testing.T, p *checkpointPayload)
		want   string // "" = must restore
	}{
		{"untouched", false, func(t *testing.T, p *checkpointPayload) {}, ""},
		// Shape: an image whose component list is not the simulator's is
		// rejected before any restore could dereference a missing image or
		// index past a short list. One row per line of checkShape.
		{"fewer cores", false, func(t *testing.T, p *checkpointPayload) { p.Cores = p.Cores[:len(p.Cores)-1] },
			"differ in their cores"},
		{"fewer L1 TLBs", false, func(t *testing.T, p *checkpointPayload) { p.L1TLBs = p.L1TLBs[:1] },
			"differ in their L1 TLBs"},
		{"fewer L1 data caches", false, func(t *testing.T, p *checkpointPayload) { p.L1Ds = nil },
			"differ in their L1 data caches"},
		{"missing L2 TLB", false, func(t *testing.T, p *checkpointPayload) { p.L2TLB = nil },
			"differ in their L2 TLB"},
		{"fault unit without demand paging", false, func(t *testing.T, p *checkpointPayload) { p.Faults = &ptw.FaultUnitState{} },
			"differ in their fault unit"},
		{"missing fault unit", true, func(t *testing.T, p *checkpointPayload) { p.Faults = nil },
			"differ in their fault unit"},
		{"page walk cache outside PWCache", false, func(t *testing.T, p *checkpointPayload) { p.PWC = &cache.CacheState{} },
			"differ in their page walk cache"},
		{"telemetry without a collector", false, func(t *testing.T, p *checkpointPayload) { p.Telemetry = &telemetry.CollectorState{} },
			"differ in their telemetry collector"},
		{"extra group sync", false, func(t *testing.T, p *checkpointPayload) { p.Syncs = append(p.Syncs, workload.GroupSyncState{}) },
			"differ in their group syncs"},
		{"L2 bypass state without the policy", false, func(t *testing.T, p *checkpointPayload) { p.ATA = &cache.ATAState{} },
			"differ in their L2 bypass policy"},
		// Every container of requests, one case each: the image it writes
		// inline must name a sink the simulator has.
		{"core retry reference", false, func(t *testing.T, p *checkpointPayload) {
			p.Cores[0].Retry = append(p.Cores[0].Retry, badSink)
		}, noSink},
		{"cache bank queue reference", false, func(t *testing.T, p *checkpointPayload) {
			p.L2C.Queues[0] = append(p.L2C.Queues[0], cache.BankItemState{Req: memreq.RequestState{Sink: -5}})
		}, "returns to ticker -6, which is not a sink"},
		{"cache MSHR waiter reference", false, func(t *testing.T, p *checkpointPayload) {
			p.L1Ds[0].Mshrs = append(p.L1Ds[0].Mshrs, cache.MSHRState{LineAddr: 1 << 50, Waiting: []memreq.RequestState{badSink}})
		}, noSink},
		{"dram queue reference", false, func(t *testing.T, p *checkpointPayload) {
			q := &p.DRAM.Channels[0].Sched.Normal
			*q = append(*q, dram.QueuedState{Req: badSink})
		}, noSink},
		// Every holder of a translation key, one case each, a key naming a
		// core that has no L1 TLB, and a key two holders name: the resumed
		// run would complete that translation twice.
		{"l1 pending reference", false, func(t *testing.T, p *checkpointPayload) {
			p.L1TLBs[0].Pending = append(p.L1TLBs[0].Pending, untracked.VPN)
		}, noTracker},
		{"l2 stalled reference", false, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Stalled = append(p.L2TLB.Stalled, untracked)
		}, noTracker},
		{"l2 pipe key names no tracker", false, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.In = append(p.L2TLB.In, engine.PipeItemState[memreq.TransKey]{ReadyAt: 1, Value: untracked})
		}, noTracker},
		{"l2 MSHR key names no tracker", false, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Mshrs = append(p.L2TLB.Mshrs, []memreq.TransKey{untracked})
		}, noTracker},
		{"l2 MSHR without a requester", false, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Mshrs = append(p.L2TLB.Mshrs, nil)
		}, "L2 TLB miss without a requester"},
		{"walk transreq reference", false, func(t *testing.T, p *checkpointPayload) {
			ws := liveWalkOf(t, p, ptw.OriginL2Miss)
			ws.Origin, ws.Tr = uint8(ptw.OriginTrans), untracked
		}, noTracker},
		{"fault-held walk key names no tracker", true, func(t *testing.T, p *checkpointPayload) {
			p.Faults.Queue = append(p.Faults.Queue, ptw.PendingFaultState{ASID: 1, VPN: untracked.VPN, Notify: []ptw.FaultNotifyState{
				{Origin: uint8(ptw.OriginTrans), Tr: untracked},
			}})
		}, noTracker},
		{"transreq names a core without an L1 TLB", false, func(t *testing.T, p *checkpointPayload) {
			p.L2TLB.Stalled = append(p.L2TLB.Stalled, memreq.TransKey{Core: 1 << 20})
		}, "tlb: checkpoint names the L1 TLB of core 1048576"},
		{"translation held twice", false, func(t *testing.T, p *checkpointPayload) {
			for _, reqs := range p.L2TLB.Mshrs {
				if len(reqs) > 0 {
					p.L2TLB.Stalled = append(p.L2TLB.Stalled, reqs[0])
					return
				}
			}
			t.Fatal("no L2 TLB miss holds a translation")
		}, "names one translation from two holders"},
		// Return routes: the sink index must name a sink restored after the
		// request's holder, and the sink must hold the state it resumes.
		{"sink index out of range", false, func(t *testing.T, p *checkpointPayload) { requestImages(p)[0].Sink = 1<<20 + 1 },
			"returns to ticker 1048576, which is not a sink"},
		{"sink index names a non-sink", false, func(t *testing.T, p *checkpointPayload) {
			// Cores register first, then the L1 TLBs, which are no request sink.
			requestImages(p)[0].Sink = int32(len(p.Cores)) + 1
		}, "which is not a sink"},
		{"request returns to a sink restored before its holder", false, func(t *testing.T, p *checkpointPayload) {
			d := *firstReturning[*cache.Cache](t, p, sinks)
			p.Cores[0].Retry = append(p.Cores[0].Retry, d)
		}, "which restored before the component holding it"},
		{"walk serial names no walk", false, func(t *testing.T, p *checkpointPayload) {
			firstReturning[*ptw.Walker](t, p, sinks).Tag = 1 << 60
		}, "returns to walk 1152921504606846976, which awaits no read"},
		{"bypass tag names no MSHR", false, func(t *testing.T, p *checkpointPayload) {
			firstReturning[*cache.Cache](t, p, sinks).Tag = 1
		}, "tag 1) has no MSHR"},
		{"request returns to a warp the core lacks", false, func(t *testing.T, p *checkpointPayload) {
			firstReturning[*gpu.Core](t, p, sinks).WarpID = 1 << 20
		}, "returns to warp 1048576 of"},
		// Continuations held as (warp, slot) pairs and walk origins: the core
		// and the shared TLB they lead to must still wait for them.
		{"l1 waiter names a slot its warp does not await", false, func(t *testing.T, p *checkpointPayload) {
			p.L1TLBs[0].Mshrs = append(p.L1TLBs[0].Mshrs, tlb.L1MissState{VPN: untracked.VPN, Waiting: []tlb.WaiterState{{Warp: 0, Slot: 1 << 20}}})
		}, "waits for warp 0 slot 1048576, which awaits no translation there"},
		{"demand walk without an L2 TLB tracker", false, func(t *testing.T, p *checkpointPayload) {
			ws := liveWalkOf(t, p, ptw.OriginL2Miss)
			p.L2TLB.Mshrs = slices.DeleteFunc(p.L2TLB.Mshrs, func(reqs []memreq.TransKey) bool { return reqs[0].VPN == ws.VPN })
		}, "has nothing waiting for its result"},
		// Occupancies past what the component can hold: more MSHRs than the
		// cache has, a bank or channel queue longer than its capacity. The
		// added requests are valid so that nothing else is wrong with the
		// image.
		{"more MSHRs than the cache has", false, func(t *testing.T, p *checkpointPayload) {
			st := &p.L1Ds[0]
			for i := len(st.Mshrs); i <= cfg.L1Cache.MSHRs; i++ {
				st.Mshrs = append(st.Mshrs, cache.MSHRState{LineAddr: 1<<50 + uint64(i)})
			}
		}, "checkpoint has " + strconv.Itoa(cfg.L1Cache.MSHRs+1) + " MSHRs, capacity is " + strconv.Itoa(cfg.L1Cache.MSHRs)},
		{"bank queue past its capacity", false, func(t *testing.T, p *checkpointPayload) {
			st := &p.L1Ds[0]
			for len(st.Queues[0]) <= cfg.L1Cache.QueueCap {
				st.Queues[0] = append(st.Queues[0], cache.BankItemState{})
			}
		}, "checkpoint bank 0 queues " + strconv.Itoa(cfg.L1Cache.QueueCap+1) + " requests, capacity is " + strconv.Itoa(cfg.L1Cache.QueueCap)},
		{"dram queue past its capacity", false, func(t *testing.T, p *checkpointPayload) {
			q := &p.DRAM.Channels[1].Sched.Normal
			for len(*q) <= cfg.DRAM.QueueCap {
				*q = append(*q, dram.QueuedState{})
			}
		}, "dram: channel 1: dram: checkpoint request queue holds " + strconv.Itoa(cfg.DRAM.QueueCap+1) + " requests, capacity is " + strconv.Itoa(cfg.DRAM.QueueCap)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, c := shared, cfg
			if tc.paging {
				img, c = paging, pagingCfg
			}
			var p checkpointPayload
			if err := gob.NewDecoder(bytes.NewReader(img.payload)).Decode(&p); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, &p)
			var body, file bytes.Buffer
			if err := gob.NewEncoder(&body).Encode(&p); err != nil {
				t.Fatal(err)
			}
			if err := snapshot.Write(&file, img.h, body.Bytes()); err != nil {
				t.Fatal(err)
			}
			dst := prepareScenario(t, c, names, 0)
			err := dst.RestoreCheckpoint(&file)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if tc.want == "" {
				dst.mustRun(t, cycles) // the adopted image must also run on
			}
		})
	}
}

// resealChecksum recomputes the trailing SHA-256 over a mutated envelope so
// tests can craft files whose only defect is the field under test.
func resealChecksum(data []byte) {
	sum := snapshot.Seal(data[:len(data)-32])
	copy(data[len(data)-32:], sum)
}

// TestWatchdogCrashCheckpoint wedges the page-table walker so the watchdog
// aborts, then proves (a) a crash checkpoint was written at the abort cycle,
// and (b) restoring it re-raises the same DeadlockError at the same cycle.
func TestWatchdogCrashCheckpoint(t *testing.T) {
	const cycles = 60_000
	cfg := SharedTLBConfig()
	cfg.WatchdogCheckEvery = 2000
	cfg.WatchdogStallChecks = 3
	cfg.CheckpointDir = t.TempDir()
	names := []string{"MUM", "GUP"}

	run := func(plan *faultinject.Plan) (*Simulator, *Results, error) {
		c := cfg
		c.FaultPlan = plan
		s := prepareScenario(t, c, names, 0)
		res, err := s.Run(context.Background(), cycles)
		return s, res, err
	}

	_, res, err := run(&faultinject.Plan{WedgePTWAfter: 3000})
	var dead *engine.DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("wedged run returned %v, want DeadlockError", err)
	}
	if !res.Aborted {
		t.Fatal("aborted run did not set Results.Aborted")
	}

	// The crash dump restores to the exact abort cycle and re-raises.
	c := cfg
	c.FaultPlan = &faultinject.Plan{WedgePTWAfter: 3000}
	s2 := prepareScenario(t, c, names, 0)
	ok, rerr := s2.RestoreCrashCheckpoint(cfg.CheckpointDir)
	if rerr != nil || !ok {
		t.Fatalf("crash restore: ok=%t err=%v", ok, rerr)
	}
	if s2.Engine().Now() != dead.Cycle {
		t.Fatalf("crash checkpoint at cycle %d, abort was at %d", s2.Engine().Now(), dead.Cycle)
	}
	_, err2 := s2.Run(context.Background(), cycles)
	var dead2 *engine.DeadlockError
	if !errors.As(err2, &dead2) {
		t.Fatalf("restored crash run returned %v, want DeadlockError", err2)
	}
	if dead2.Cycle != dead.Cycle {
		t.Fatalf("re-raised abort at cycle %d, original at %d", dead2.Cycle, dead.Cycle)
	}
	if dead2.Error() != dead.Error() {
		t.Fatalf("re-raised error differs:\noriginal: %s\nrestored: %s", dead.Error(), dead2.Error())
	}

	// Resume must NOT adopt the crash dump: with no periodic checkpoints in
	// the directory the run starts clean (and wedges again on its own).
	c2 := cfg
	c2.Resume = true
	c2.FaultPlan = &faultinject.Plan{WedgePTWAfter: 3000}
	s3 := prepareScenario(t, c2, names, 0)
	if _, err := s3.Run(context.Background(), cycles); err == nil {
		t.Fatal("wedged rerun unexpectedly succeeded")
	}
	if s3.CheckpointStats().Restored != 0 {
		t.Fatalf("resume adopted the crash dump: %+v", s3.CheckpointStats())
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
