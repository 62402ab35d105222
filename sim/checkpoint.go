package sim

// Mid-run checkpoint/restore (docs/MODEL.md §9). A checkpoint is the complete
// mutable state of a live simulator — clock, per-component state, every
// in-flight request — captured between two cycles and wrapped in the
// internal/snapshot envelope (versioned, fingerprint-keyed, checksummed).
// Restoring it onto a freshly built simulator with the identical
// configuration makes every subsequent cycle bit-identical to the
// uninterrupted run.
//
// Every in-flight request is written by the one component that holds it, and
// every live translation by its L1 TLB miss tracker; everything else names a
// translation by its (core, VPN) key. Restore is one pass, memory side up,
// each component resolving what it names against those already restored, and
// all or nothing: a rejected image is dropped by rebuilding the simulator.
// Nothing a restore can recompute is written: not the allocator's free lists
// and counters, not a count the rest of the image implies.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

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

// checkpointPayload is the gob-encoded body inside the snapshot envelope: one
// typed image per component, then the state the simulator owns. It holds no
// interface and no map, so two images of one state are the same bytes.
type checkpointPayload struct {
	Clock engine.ClockState

	Cores     []gpu.CoreState
	L1TLBs    []tlb.L1State
	L1Ds      []cache.CacheState
	L2TLB     *tlb.L2State
	Walker    ptw.WalkerState
	Faults    *ptw.FaultUnitState
	PWC       *cache.CacheState
	L2C       cache.CacheState
	DRAM      dram.DRAMState
	Telemetry *telemetry.CollectorState

	// Watchdog is the supervision state mid-run (nil when unsupervised). A
	// crash dump's has reached the stall limit, and restore rejects it.
	Watchdog *engine.WatchdogState

	// Syncs holds the deduplicated group-barrier states in deterministic
	// core/warp traversal order.
	Syncs []workload.GroupSyncState

	// ATA is the L2 bypass policy's state (nil unless Mask.L2Bypass).
	ATA *cache.ATAState

	// FaultPlan carries the injection counters when a plan is wired.
	FaultPlan *faultinject.PlanState
}

// CheckpointStats counts checkpoint activity on one simulator.
type CheckpointStats struct {
	// Taken is the number of checkpoint files successfully written.
	Taken int
	// Restored is 1 if this simulator adopted a checkpoint, else 0.
	Restored int
	// Rejected counts checkpoint files a resume skipped (corrupt, truncated,
	// stale format, wrong simulation or budget, or an impossible state).
	Rejected int
	// WriteErrors counts periodic checkpoint writes that failed (best-effort:
	// a full disk does not abort a healthy run).
	WriteErrors int
}

// CheckpointStats reports this simulator's checkpoint activity.
func (s *Simulator) CheckpointStats() CheckpointStats { return s.ckptStats }

// ErrWrongSimulation rejects a checkpoint whose fingerprint names a different
// simulation (config, apps, or core split differ).
var ErrWrongSimulation = errors.New("sim: checkpoint fingerprint does not match this simulation")

// ErrCheckpointDirUnwritable rejects a Config at build time when its
// CheckpointDir cannot be created or written. Surfacing this before the run
// starts turns what used to be a silent stream of best-effort write failures
// into one structured, actionable error.
var ErrCheckpointDirUnwritable = errors.New("sim: checkpoint directory unwritable")

// ErrWatchdogTripped rejects an image whose watchdog has already seen
// watchdogStallChecks checks without progress: a crash dump, written when
// the watchdog aborted the run. Such an image is evidence to inspect
// (masksim -inspect-checkpoint), not a state to resume, which would abort at
// its first check.
var ErrWatchdogTripped = errors.New("sim: checkpoint is a watchdog crash dump (stall limit reached)")

// probeCheckpointDir durably creates dir and proves it accepts writes by
// round-tripping a temp file. Called from New so a misconfigured campaign
// fails at config time, not CheckpointEvery cycles in.
func probeCheckpointDir(dir string) error {
	err := snapshot.EnsureDir(dir)
	if err == nil {
		var f *os.File
		if f, err = os.CreateTemp(dir, ".probe-*.tmp"); err == nil {
			_, err = f.Write([]byte("ok"))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			os.Remove(f.Name())
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCheckpointDirUnwritable, dir, err)
	}
	return nil
}

// Fingerprint identifies this exact simulation: the config's Key plus every
// application's identity (a trace by name and content digest), seed and core
// share. Two simulators with equal fingerprints simulate bit-identically, so
// a checkpoint may only restore onto a matching one.
func (s *Simulator) Fingerprint() string {
	if s.fp != "" {
		return s.fp
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|", s.cfg.Key())
	for i, app := range s.apps {
		name := app.Profile.Name
		if app.Trace != nil {
			name = app.Trace.Name + "@" + app.Trace.Digest
		}
		fmt.Fprintf(h, "%d:%s:%d:%d|", app.ID, name, app.Seed, s.coresPerApp[i])
	}
	s.fp = hex.EncodeToString(h.Sum(nil))[:16]
	return s.fp
}

// Checkpoint serializes the simulator's complete state to w inside the
// snapshot envelope. Callable between any two cycles: the engine's
// checkpoint hook calls it at CheckpointEvery boundaries, and tests call it
// directly after stepping the engine.
func (s *Simulator) Checkpoint(w io.Writer) error {
	p := checkpointPayload{
		Clock:  s.eng.Clock(),
		Walker: s.walker.SnapshotState(),
		L2C:    s.l2c.SnapshotState(),
		DRAM:   s.mem.SnapshotState(),
	}
	for _, c := range s.cores {
		p.Cores = append(p.Cores, c.SnapshotState())
	}
	for _, t := range s.l1tlbs {
		p.L1TLBs = append(p.L1TLBs, t.SnapshotState())
	}
	for _, c := range s.l1ds {
		p.L1Ds = append(p.L1Ds, c.SnapshotState())
	}
	if s.l2tlb != nil {
		p.L2TLB = ptr(s.l2tlb.SnapshotState())
	}
	if s.faults != nil {
		p.Faults = ptr(s.faults.SnapshotState())
	}
	if s.pwc != nil {
		p.PWC = ptr(s.pwc.SnapshotState())
	}
	if s.tel != nil {
		st, err := s.tel.SnapshotState()
		if err != nil {
			return fmt.Errorf("sim: checkpoint: %w", err)
		}
		p.Telemetry = &st
	}
	if s.curWD != nil {
		p.Watchdog = ptr(s.curWD.State())
	} else {
		p.Watchdog = s.restoredWD // restored but not yet running
	}
	for _, g := range s.syncs() {
		p.Syncs = append(p.Syncs, g.State())
	}
	if s.ata != nil {
		p.ATA = ptr(s.ata.State())
	}
	if s.cfg.FaultPlan != nil {
		p.FaultPlan = ptr(s.cfg.FaultPlan.State())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	return snapshot.Write(w, snapshot.Header{
		Fingerprint: s.Fingerprint(),
		Cycle:       s.eng.Now(),
		TotalCycles: s.totalCycles,
	}, buf.Bytes())
}

// ptr returns a pointer to a copy of v: an optional part of the payload.
func ptr[T any](v T) *T { return &v }

// RestoreCheckpoint restores a checkpoint written by Checkpoint onto this
// freshly built simulator. Must be called before Run; the subsequent Run must
// use the same total cycle budget as the interrupted run. Restore is all or
// nothing: an image it rejects — a defective envelope
// (snapshot.ErrBadMagic/ErrChecksum/ErrTruncated, *snapshot.VersionError),
// another simulation (ErrWrongSimulation) or a state no run reaches — leaves
// the simulator as New built it, free to restore another image or to run.
func (s *Simulator) RestoreCheckpoint(r io.Reader) error {
	h, payload, err := snapshot.Read(r)
	if err != nil {
		return err
	}
	return s.restoreDecoded(h, payload, h.TotalCycles)
}

// restoreDecoded applies a verified envelope for a run of budget cycles. A
// rejection rebuilds the simulator, dropping whatever the restore had
// assigned by then; the caller's telemetry sink, the one resource outside
// the simulator whose restore can fail, is rewound after every other step
// that can.
func (s *Simulator) restoreDecoded(h snapshot.Header, payload []byte, budget int64) (err error) {
	if s.ran {
		return fmt.Errorf("sim: RestoreCheckpoint must precede Run")
	}
	if s.restored {
		return fmt.Errorf("sim: simulator already restored from a checkpoint")
	}
	defer func() {
		if err != nil {
			s.rebuild()
		}
	}()
	switch {
	case h.Fingerprint != s.Fingerprint():
		return fmt.Errorf("%w (checkpoint %s, simulation %s)", ErrWrongSimulation, h.Fingerprint, s.Fingerprint())
	case h.TotalCycles != budget || h.Cycle < 0 || h.Cycle > budget:
		return fmt.Errorf("sim: checkpoint at cycle %d of a %d-cycle run, this run has %d", h.Cycle, h.TotalCycles, budget)
	}
	var p checkpointPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return fmt.Errorf("sim: decode checkpoint payload: %w", err)
	}
	syncs := s.syncs()
	if err := s.checkShape(&p, len(syncs)); err != nil {
		return err
	}
	switch wd, c := p.Watchdog, p.Clock; {
	case wd != nil && wd.Stalled >= watchdogStallChecks:
		return fmt.Errorf("%w: %d checks without progress", ErrWatchdogTripped, wd.Stalled)
	case wd != nil && wd.Stalled < 0:
		return fmt.Errorf("sim: checkpoint watchdog has %d checks without progress", wd.Stalled)
	case c.Ticked < 0 || c.Skipped < 0:
		return fmt.Errorf("sim: checkpoint clock has a negative count (%d ticked, %d skipped)", c.Ticked, c.Skipped)
	case c.Ticked+c.Skipped != h.Cycle:
		return fmt.Errorf("sim: checkpoint clock is at cycle %d (%d ticked + %d skipped), its header at %d", c.Ticked+c.Skipped, c.Ticked, c.Skipped, h.Cycle)
	}
	// Restore resolves every route against the pool's sink table and every
	// translation key against the L1 TLBs' misses, and bounds every identity
	// by the simulator's apps, cores and warps.
	holders := s.l1tlbs.Holders()
	wi := &memreq.Wiring{Pool: &s.reqPool, Trans: holders.Trans, Cores: len(s.cores), Warps: s.cfg.WarpsPerCore}
	for _, sp := range s.spaces {
		wi.ASIDs = append(wi.ASIDs, sp.ASID())
	}
	// One pass, memory side up (docs/MODEL.md §9): each container of
	// requests before the sinks they return to, so a sink's last step sees
	// every request routed to it, and the cores, then the L1 TLBs — which
	// write every live translation and count each warp's pending ones —
	// before anything that names one.
	err = s.mem.RestoreState(wi, p.DRAM)
	if err == nil {
		err = s.l2c.RestoreState(wi, p.L2C)
	}
	if err == nil && s.pwc != nil {
		err = s.pwc.RestoreState(wi, *p.PWC)
	}
	for i := 0; err == nil && i < len(s.l1ds); i++ {
		err = s.l1ds[i].RestoreState(wi, p.L1Ds[i])
	}
	for i := 0; err == nil && i < len(s.cores); i++ {
		err = s.cores[i].RestoreState(wi, p.Cores[i])
	}
	for i := 0; err == nil && i < len(s.l1tlbs); i++ {
		err = s.l1tlbs[i].RestoreState(wi, p.L1TLBs[i])
	}
	for i := 0; err == nil && i < len(s.cores); i++ {
		err = s.cores[i].Recount()
	}
	if err == nil && s.l2tlb != nil {
		err = s.l2tlb.RestoreState(wi, *p.L2TLB)
	}
	if err == nil && s.faults != nil {
		err = s.faults.RestoreState(wi, h.Cycle, *p.Faults)
	}
	if err == nil {
		err = s.walker.RestoreState(wi, p.Walker)
	}
	// With every holder restored: each L1 miss's translation has one, and
	// each shared-TLB miss a demand walk to fill it.
	if err == nil {
		err = holders.Unheld()
	}
	if err == nil && s.l2tlb != nil {
		err = s.l2tlb.CheckWalks(s.walker.Demands)
	}
	if err != nil {
		return fmt.Errorf("sim: restore checkpoint: %w", err)
	}
	s.eng.SetClock(p.Clock)
	for i, g := range syncs {
		if err := g.SetState(p.Syncs[i]); err != nil {
			return fmt.Errorf("sim: restore checkpoint: group sync %d: %w", i, err)
		}
	}
	if p.ATA != nil {
		s.ata.SetState(*p.ATA)
	}
	if s.tel != nil {
		if err := s.tel.RestoreState(*p.Telemetry); err != nil {
			return fmt.Errorf("sim: restore checkpoint: %w", err)
		}
	}
	if p.FaultPlan != nil && s.cfg.FaultPlan != nil {
		s.cfg.FaultPlan.SetState(*p.FaultPlan)
	}
	s.restored, s.restoredWD, s.totalCycles = true, p.Watchdog, h.TotalCycles
	s.ckptStats.Restored++
	return nil
}

// rebuild makes s again as New built it, over nothing. It keeps what build
// does not make — the simulation, its fingerprint and checkpoint counts; a
// restore precedes Run, so no run flag is set — and the caller's telemetry
// sink, which the new collector takes over without binding it twice.
func (s *Simulator) rebuild() {
	prev := *s
	*s = Simulator{cfg: prev.cfg, apps: prev.apps, coresPerApp: prev.coresPerApp, fp: prev.fp, ckptStats: prev.ckptStats}
	s.build(&Simulator{tel: prev.tel})
}

// checkShape rejects an image whose components are not this simulator's,
// which a matching fingerprint rules out for any checkpoint this build wrote.
func (s *Simulator) checkShape(p *checkpointPayload, nSyncs int) error {
	for _, c := range []struct {
		what string
		same bool
	}{
		{"cores", len(p.Cores) == len(s.cores)},
		{"L1 TLBs", len(p.L1TLBs) == len(s.l1tlbs)},
		{"L1 data caches", len(p.L1Ds) == len(s.l1ds)},
		{"L2 TLB", (p.L2TLB != nil) == (s.l2tlb != nil)},
		{"fault unit", (p.Faults != nil) == (s.faults != nil)},
		{"page walk cache", (p.PWC != nil) == (s.pwc != nil)},
		{"telemetry collector", (p.Telemetry != nil) == (s.tel != nil)},
		{"group syncs", len(p.Syncs) == nSyncs},
		{"L2 bypass policy", p.ATA == nil || s.ata != nil},
	} {
		if !c.same {
			return fmt.Errorf("sim: checkpoint and simulator differ in their %s", c.what)
		}
	}
	return nil
}

// syncs lists every distinct group-barrier object once, in deterministic
// core/warp build order — the same order on the checkpointing and the
// restoring simulator.
func (s *Simulator) syncs() []*workload.GroupSync {
	var out []*workload.GroupSync
	seen := make(map[*workload.GroupSync]bool)
	for _, c := range s.cores {
		for w := 0; w < s.cfg.WarpsPerCore; w++ {
			if g := c.Stream(w).Sync(); g != nil && !seen[g] {
				seen[g] = true
				out = append(out, g)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Checkpoint files

// checkpointPath names a periodic checkpoint: <fingerprint>-<cycle>.ckpt,
// zero-padded so lexical and numeric order agree.
func (s *Simulator) checkpointPath(cycle int64) string {
	return filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("%s-%012d.ckpt", s.Fingerprint(), cycle))
}

// crashCheckpointPath names the watchdog's crash dump: <fingerprint>-crash.ckpt.
func (s *Simulator) crashCheckpointPath() string {
	return filepath.Join(s.cfg.CheckpointDir, s.Fingerprint()+"-crash.ckpt")
}

// writeCheckpointFile serializes the current state and writes it atomically
// (tmp+rename+fsync), so a kill mid-write can never leave a truncated file
// under the final name. A failed write is counted, not returned: periodic
// checkpoints are best-effort.
func (s *Simulator) writeCheckpointFile(path string) {
	var buf bytes.Buffer
	err := s.Checkpoint(&buf)
	if err == nil {
		err = snapshot.EnsureDir(filepath.Dir(path))
	}
	if err == nil {
		err = snapshot.WriteFileAtomic(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		s.ckptStats.WriteErrors++
		return
	}
	s.ckptStats.Taken++
}

// ckptCandidate is one on-disk checkpoint of this simulation.
type ckptCandidate struct {
	path  string
	cycle int64
}

// listCheckpoints returns this fingerprint's periodic checkpoints under dir,
// newest (highest cycle) first. Crash dumps are excluded: they are evidence,
// and restore rejects them (ErrWatchdogTripped).
func listCheckpoints(dir, fp string) []ckptCandidate {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []ckptCandidate
	prefix := fp + "-"
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".ckpt")
		cycle, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			continue // crash dump or foreign file
		}
		out = append(out, ckptCandidate{path: filepath.Join(dir, name), cycle: cycle})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cycle > out[j].cycle })
	return out
}

// restoreFromDir adopts the newest checkpoint of this simulation in dir that
// restores for a run of cycles cycles. A file it rejects — unreadable,
// corrupt, truncated, of another format, simulation or budget, or holding a
// state no run reaches — is counted in CheckpointStats.Rejected, leaves the
// simulator as New built it, and the next older one is tried. The error is
// for a failure outside the image: the caller's telemetry sink failed while
// it was rewound.
func (s *Simulator) restoreFromDir(dir string, cycles int64) error {
	for _, cand := range listCheckpoints(dir, s.Fingerprint()) {
		data, err := os.ReadFile(cand.path)
		if err == nil {
			var h snapshot.Header
			var payload []byte
			if h, payload, err = snapshot.Decode(data); err == nil {
				err = s.restoreDecoded(h, payload, cycles)
			}
		}
		if err == nil {
			return nil
		}
		if k := s.cfg.TelemetrySink; k != nil && k.Err() != nil {
			return fmt.Errorf("sim: restore %s: %w", cand.path, err)
		}
		s.ckptStats.Rejected++
	}
	return nil
}

// RemoveCheckpoints deletes this simulation's periodic checkpoint files from
// the configured checkpoint directory. Crash dumps are kept — they are
// diagnostic evidence, not resume state. Harnesses call this after a run
// completes so a long campaign does not accumulate stale checkpoints.
func (s *Simulator) RemoveCheckpoints() error {
	if s.cfg.CheckpointDir == "" {
		return nil // every campaign cell calls this: no fingerprint, no directory read
	}
	var first error
	for _, cand := range listCheckpoints(s.cfg.CheckpointDir, s.Fingerprint()) {
		if err := os.Remove(cand.path); err != nil && first == nil {
			first = err
		}
	}
	return first
}
