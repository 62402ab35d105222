// Package faultinject provides deterministic fault injection for the
// simulator's supervision layer. A Plan wedges page-table walks, drops DRAM
// responses, or panics from inside a simulation tick at a chosen cycle;
// tests use these faults to prove that the engine watchdog, the harness
// panic recovery, and the error-propagation paths actually fire.
//
// Faults are wired by the simulator: set sim.Config.FaultPlan and the
// builder installs the hooks on the walker, the DRAM model, and the engine
// tick list. The injection points are ordinary single-goroutine simulation
// code, so a Plan needs no locking; read its counters after the run returns.
package faultinject

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Plan describes the faults to inject into one simulation run. The zero
// value injects nothing. A Plan accumulates hit counters across a run (and
// across a supervised retry of the same run), so build a fresh Plan per
// experiment cell when counters must be attributed precisely.
type Plan struct {
	// WedgePTWAfter, when > 0, wedges every page-table walk that tries to
	// issue a memory access at cycle >= WedgePTWAfter: the walk occupies its
	// walker slot forever and its translation never completes. Downstream,
	// warps waiting on those translations stall and the run eventually stops
	// retiring instructions — the livelock the watchdog must catch.
	WedgePTWAfter int64

	// DropDRAMOneIn, when > 0, drops every DropDRAMOneIn-th DRAM response
	// (the request is serviced but its completion callback never runs) once
	// the run reaches DropDRAMAfter. The waiting MSHR is never filled, so
	// the dependent warp hangs.
	DropDRAMOneIn int64
	// DropDRAMAfter delays response dropping until the given cycle, letting
	// a run warm up before the fault fires.
	DropDRAMAfter int64

	// PanicAtCycle, when > 0, panics from inside the engine tick at that
	// cycle — a stand-in for an internal invariant violation, used to prove
	// the experiment harness recovers worker panics instead of crashing the
	// campaign.
	PanicAtCycle int64

	// KillAtCycle, when > 0, hard-kills the process (os.Exit, no deferred
	// functions, no checkpoint flush) from inside the engine tick at that
	// cycle — a stand-in for SIGKILL / OOM-kill / power loss, used to prove
	// that campaign resume survives a worker that never got to say goodbye.
	// It only fires when AllowKill is also set, so a stray Plan value can
	// never take down a real campaign.
	KillAtCycle int64
	// AllowKill arms KillAtCycle. Test-only: the simulator never sets it.
	AllowKill bool

	// PlanState records what actually fired, for test assertions.
	PlanState

	sink EventSink
}

// PlanState is the plan's mutable counters and its checkpoint image: the
// hit counters and the drop phase, so a run restored mid-fault-injection
// counts and drops exactly like the uninterrupted one.
type PlanState struct {
	WedgedWalks      int64
	DroppedResponses int64
	// KillsArmed counts KillAtCycle activations observed before the exit;
	// readable only if the kill was disarmed (AllowKill false).
	KillsArmed int64
	// DropSeen counts the responses seen since dropping began.
	DropSeen int64
}

// State captures the plan's mutable counters for checkpointing.
func (p *Plan) State() PlanState { return p.PlanState }

// SetState restores counters captured by State.
func (p *Plan) SetState(st PlanState) { p.PlanState = st }

// EventSink receives one instant event per injected fault; telemetry.Collector
// implements it. Nil (the default) costs a single branch per fault.
type EventSink interface {
	Emit(now int64, name, component string, args map[string]string)
}

// SetEventSink wires an instant-event sink so injected faults show up in
// exported traces. Pass nil to clear.
func (p *Plan) SetEventSink(s EventSink) {
	p.sink = s
}

// Active reports whether the plan injects anything.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.WedgePTWAfter > 0 || p.DropDRAMOneIn > 0 || p.PanicAtCycle > 0 ||
		p.KillAtCycle > 0
}

// WedgeWalk implements the page-table-walker wedge hook.
func (p *Plan) WedgeWalk(now int64) bool {
	if p.WedgePTWAfter <= 0 || now < p.WedgePTWAfter {
		return false
	}
	p.WedgedWalks++
	if p.sink != nil {
		p.sink.Emit(now, "fault.wedge_walk", "faults", map[string]string{
			"wedged_walks": fmt.Sprintf("%d", p.WedgedWalks),
		})
	}
	return true
}

// DropResponse implements the DRAM response-drop hook.
func (p *Plan) DropResponse(now int64) bool {
	if p.DropDRAMOneIn <= 0 || now < p.DropDRAMAfter {
		return false
	}
	p.DropSeen++
	if p.DropSeen%p.DropDRAMOneIn != 0 {
		return false
	}
	p.DroppedResponses++
	if p.sink != nil {
		p.sink.Emit(now, "fault.drop_response", "faults", map[string]string{
			"dropped_responses": fmt.Sprintf("%d", p.DroppedResponses),
		})
	}
	return true
}

// TickPanic is registered as an engine ticker; it panics at PanicAtCycle.
func (p *Plan) TickPanic(now int64) {
	if p.PanicAtCycle > 0 && now == p.PanicAtCycle {
		if p.sink != nil {
			p.sink.Emit(now, "fault.panic", "faults", map[string]string{
				"cycle": fmt.Sprintf("%d", now),
			})
		}
		panic(fmt.Sprintf("faultinject: injected panic at cycle %d", now))
	}
}

// TickKill hard-exits the process at KillAtCycle when armed (see AllowKill).
// os.Exit bypasses deferred functions and signal handlers — exactly the
// "pulled the plug" failure campaign resume must survive. Exit code 137
// matches a SIGKILLed process so CI scripts treat both paths identically.
func (p *Plan) TickKill(now int64) {
	if p.KillAtCycle <= 0 || now != p.KillAtCycle {
		return
	}
	p.KillsArmed++
	if p.sink != nil {
		p.sink.Emit(now, "fault.kill", "faults", map[string]string{
			"cycle": fmt.Sprintf("%d", now),
			"armed": fmt.Sprintf("%t", p.AllowKill),
		})
	}
	if p.AllowKill {
		os.Exit(137)
	}
}

// CorruptCheckpointByte flips one byte (at offset, wrapped to the file size)
// of the most recently modified *.ckpt file under dir, simulating bit rot or
// a torn write. Returns the corrupted file's path. Restore paths must reject
// such a file with snapshot.ErrChecksum and fall back to a clean start.
func CorruptCheckpointByte(dir string, offset int64) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("faultinject: corrupt checkpoint: %w", err)
	}
	var newest string
	var newestMod time.Time
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if newest == "" || info.ModTime().After(newestMod) {
			newest = filepath.Join(dir, e.Name())
			newestMod = info.ModTime()
		}
	}
	if newest == "" {
		return "", fmt.Errorf("faultinject: no checkpoint files in %s", dir)
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		return "", fmt.Errorf("faultinject: corrupt checkpoint: %w", err)
	}
	if len(data) == 0 {
		return "", fmt.Errorf("faultinject: checkpoint %s is empty", newest)
	}
	if offset < 0 {
		offset = -offset
	}
	data[offset%int64(len(data))] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		return "", fmt.Errorf("faultinject: corrupt checkpoint: %w", err)
	}
	return newest, nil
}
