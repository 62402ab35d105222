package gpu

import (
	"math/bits"
	"strings"
	"testing"

	"masksim/internal/cache"
	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/pagetable"
	"masksim/internal/workload"
)

// sink is a backend that completes everything after a fixed delay, driven
// by tick(), through the pool of the cache it backs.
type sink struct {
	delay   int64
	pending []pendingReq
	pool    memreq.Pool
}

type pendingReq struct {
	at int64
	r  *memreq.Request
}

func (s *sink) Submit(now int64, r *memreq.Request) bool {
	s.pending = append(s.pending, pendingReq{at: now + s.delay, r: r})
	return true
}

func (s *sink) tick(now int64) {
	nkeep := 0
	for _, p := range s.pending {
		if p.at <= now {
			s.pool.Complete(p.r, now, memreq.ServedDRAM)
		} else {
			s.pending[nkeep] = p
			nkeep++
		}
	}
	s.pending = s.pending[:nkeep]
}

func testProfile() workload.Profile {
	return workload.Profile{
		Name: "T", HotBytes: 64 << 10, PrivateBytes: 256 << 10,
		HotProb: 0.5, PageStayProb: 0.8, SeqProb: 0.9,
		ComputePerMem: 4, Divergence: 1, LinesPerInst: 2, WriteFrac: 0.2,
	}
}

// testBase is where the test streams' heap starts.
const testBase = 1 << 32

// mappedSpace is an address space mapping every page p's warps touch, as the
// simulator maps an application's working set before it runs.
func mappedSpace(p workload.Profile, warps int) *pagetable.Space {
	sp := pagetable.NewSpace(1, pagetable.PageSize4K, pagetable.NewAllocator())
	p.PagesToMap(testBase, pagetable.PageSize4K, warps, func(va uint64) { sp.EnsureMapped(va) })
	return sp
}

func newTestCore(warps int, translate TranslateFn) (*Core, *sink, *cache.Cache) {
	be := &sink{delay: 5}
	pool := &be.pool
	l1d := cache.New(cache.Config{
		Name: "l1", SizeBytes: 4096, Ways: 4, LineSize: 64,
		Banks: 1, PortsPerBank: 4, Latency: 1, QueueCap: 64,
	}, be, pool)
	streams := make([]*workload.Stream, warps)
	p := testProfile()
	f := workload.NewStreamFactory(p, testBase, 4096, 64, warps, 5)
	for w := 0; w < warps; w++ {
		streams[w] = f.New(w) // the profile is ungrouped: no barriers
	}
	core := New(0, 0, Config{WarpsPerCore: warps}, mappedSpace(p, warps), streams, translate, l1d, pool)
	return core, be, l1d
}

// instantTranslate is the Ideal configuration's TranslateFn: nil, every page
// translated at once.
var instantTranslate TranslateFn

// queuedTrans is a translation the test's TranslateFn left unanswered: the
// test answers it later through Core.Translated, as an L1 TLB would.
type queuedTrans struct {
	warp, slot int
}

func (q queuedTrans) answer(core *Core, now int64) { core.Translated(now, q.warp, q.slot) }

// readyWarps returns the number of c's schedulable warps.
func readyWarps(c *Core) int {
	n := 0
	for _, word := range c.ready {
		n += bits.OnesCount64(word)
	}
	return n
}

func run(core *Core, be *sink, l1d *cache.Cache, cycles int64) {
	for now := int64(0); now < cycles; now++ {
		core.Tick(now)
		l1d.Tick(now)
		be.tick(now)
	}
}

func TestCoreMakesProgress(t *testing.T) {
	core, be, l1d := newTestCore(4, instantTranslate)
	run(core, be, l1d, 2000)
	if core.Stats.Instructions == 0 {
		t.Fatal("no instructions issued")
	}
	if core.Stats.MemInsts == 0 || core.Stats.ComputeInsts == 0 {
		t.Fatalf("instruction mix broken: %+v", core.Stats)
	}
	if ipc := float64(core.Stats.Instructions) / float64(core.Stats.Cycles); ipc <= 0 || ipc > 1 {
		t.Fatalf("IPC=%v out of (0,1]", ipc)
	}
}

func TestCoreIssuesAtMostOnePerCycle(t *testing.T) {
	core, be, l1d := newTestCore(8, instantTranslate)
	run(core, be, l1d, 500)
	if core.Stats.Instructions+core.Stats.IdleCycles != core.Stats.Cycles {
		t.Fatalf("instructions(%d) + idle(%d) != cycles(%d)",
			core.Stats.Instructions, core.Stats.IdleCycles, core.Stats.Cycles)
	}
}

func TestCoreIdlesWhenTranslationStalls(t *testing.T) {
	// A translation that never completes must idle the core once every warp
	// has issued its first memory instruction.
	neverTranslate := func(now int64, vpn uint64, warpID, slot int) bool { return false }
	core, be, l1d := newTestCore(2, neverTranslate)
	run(core, be, l1d, 500)
	if readyWarps(core) != 0 {
		t.Fatalf("%d warps ready despite blocked translations", readyWarps(core))
	}
	if core.Stats.IdleCycles == 0 {
		t.Fatal("core never idled")
	}
	// Every idle cycle here is a translation stall: both warps are wedged
	// inside the (never-completing) TLB.
	if core.Stats.IdleTransCycles != core.Stats.IdleCycles {
		t.Fatalf("trans-stall cycles %d != idle cycles %d under a wedged TLB",
			core.Stats.IdleTransCycles, core.Stats.IdleCycles)
	}
}

func TestIdleAttributionSumsToIdleCycles(t *testing.T) {
	// Delay translations by stashing them and completing 7 cycles later, so
	// the run exercises both translation-bound and data-bound idle cycles.
	type pendingTr struct {
		at int64
		q  queuedTrans
	}
	var trq []pendingTr
	translate := func(now int64, vpn uint64, warpID, slot int) bool {
		trq = append(trq, pendingTr{at: now + 7, q: queuedTrans{warpID, slot}})
		return false
	}
	core, be, l1d := newTestCore(4, translate)
	for now := int64(0); now < 3000; now++ {
		core.Tick(now)
		l1d.Tick(now)
		be.tick(now)
		nkeep := 0
		for _, p := range trq {
			if p.at <= now {
				p.q.answer(core, now)
			} else {
				trq[nkeep] = p
				nkeep++
			}
		}
		trq = trq[:nkeep]
	}
	s := core.Stats
	if s.IdleTransCycles == 0 || s.IdleDataCycles == 0 {
		t.Fatalf("expected both stall classes to occur: %+v", s)
	}
	if sum := s.IdleTransCycles + s.IdleDataCycles + s.IdleOtherCycles; sum != s.IdleCycles {
		t.Fatalf("idle attribution %d+%d+%d = %d != idle cycles %d",
			s.IdleTransCycles, s.IdleDataCycles, s.IdleOtherCycles, sum, s.IdleCycles)
	}
	if s.Instructions+s.IdleCycles != s.Cycles {
		t.Fatalf("instructions(%d) + idle(%d) != cycles(%d)", s.Instructions, s.IdleCycles, s.Cycles)
	}
}

func TestDelayedTranslationUnblocksWarp(t *testing.T) {
	var pending []queuedTrans
	stash := func(now int64, vpn uint64, warpID, slot int) bool {
		pending = append(pending, queuedTrans{warpID, slot})
		return false
	}
	core, be, l1d := newTestCore(1, stash)
	run(core, be, l1d, 50)
	if len(pending) == 0 {
		t.Fatal("no translation requested")
	}
	issuedBefore := core.Stats.Instructions
	// Complete the translation; the warp should resume.
	for _, q := range pending {
		q.answer(core, 50)
	}
	pending = nil
	run2 := func(from, to int64) {
		for now := from; now < to; now++ {
			core.Tick(now)
			l1d.Tick(now)
			be.tick(now)
			for _, q := range pending {
				q.answer(core, now)
			}
			pending = nil
		}
	}
	run2(51, 300)
	if core.Stats.Instructions <= issuedBefore {
		t.Fatal("warp did not resume after translation completed")
	}
}

func TestGTOPrefersCurrentWarp(t *testing.T) {
	core, be, l1d := newTestCore(4, instantTranslate)
	// After the first issue, the same warp should keep issuing its compute
	// instructions until it blocks on memory.
	core.Tick(0)
	first := core.current
	for now := int64(1); now < 5; now++ {
		core.Tick(now)
		if core.warps[first].Phase == warpReady && core.current != first {
			t.Fatal("GTO switched away from a ready current warp")
		}
		l1d.Tick(now)
		be.tick(now)
	}
}

func TestWritesDoNotBlockWarp(t *testing.T) {
	// With WriteFrac 1, every memory instruction is a store; the warp must
	// keep issuing (stores retire via the write buffer).
	p := testProfile()
	p.WriteFrac = 1
	be := &sink{delay: 1000} // writes would block forever if they counted
	pool := &be.pool
	l1d := cache.New(cache.Config{
		Name: "l1", SizeBytes: 4096, Ways: 4, LineSize: 64,
		Banks: 1, PortsPerBank: 4, Latency: 1, QueueCap: 256,
	}, be, pool)
	s := workload.NewStreamFactory(p, testBase, 4096, 64, 1, 3).New(0)
	core := New(0, 0, Config{WarpsPerCore: 1}, mappedSpace(p, 1),
		[]*workload.Stream{s}, instantTranslate, l1d, pool)
	for now := int64(0); now < 300; now++ {
		core.Tick(now)
		l1d.Tick(now)
	}
	if core.Stats.MemInsts < 10 {
		t.Fatalf("store-only warp issued just %d memory instructions", core.Stats.MemInsts)
	}
}

func TestSyncStalledWarpSkipped(t *testing.T) {
	p := testProfile()
	p.WarpsPerGroup = 2
	f := workload.NewStreamFactory(p, testBase, 4096, 64, 2, 9)
	streams := []*workload.Stream{f.New(0), f.New(1)}
	// Block warp 1 forever by never translating for it; warp 0 advances
	// until the group-sync window stops it.
	be := &sink{delay: 2}
	pool := &be.pool
	l1d := cache.New(cache.Config{
		Name: "l1", SizeBytes: 4096, Ways: 4, LineSize: 64,
		Banks: 1, PortsPerBank: 4, Latency: 1, QueueCap: 64,
	}, be, pool)
	translate := func(now int64, vpn uint64, warpID, slot int) bool {
		return warpID != 1 // warp 1's translations never complete
	}
	core := New(0, 0, Config{WarpsPerCore: 2}, mappedSpace(p, 2),
		streams, translate, l1d, pool)
	for now := int64(0); now < 3000; now++ {
		core.Tick(now)
		l1d.Tick(now)
		be.tick(now)
	}
	if !streams[0].SyncStalled() {
		t.Fatal("leader warp ran unboundedly ahead of its blocked group member")
	}
}

// schedWorld is a core whose translations queue up until the test answers
// them, so the test decides which warps are blocked at any cycle.
type schedWorld struct {
	core  *Core
	be    *sink
	l1d   *cache.Cache
	trans []queuedTrans
}

func newSchedWorld(warps int, roundRobin bool) *schedWorld {
	w := &schedWorld{}
	w.core, w.be, w.l1d = newTestCore(warps, func(_ int64, vpn uint64, warpID, slot int) bool {
		w.trans = append(w.trans, queuedTrans{warpID, slot})
		return false
	})
	w.core.cfg.RoundRobin = roundRobin
	return w
}

// step runs one cycle, first answering the oldest queued translation if asked
// to, and returns the warp the scheduler is on and the instructions issued.
func (w *schedWorld) step(now int64, answer bool) (int, uint64) {
	if answer && len(w.trans) > 0 {
		q := w.trans[0]
		w.trans = w.trans[1:]
		q.answer(w.core, now)
	}
	w.core.Tick(now)
	w.l1d.Tick(now)
	w.be.tick(now)
	return w.core.current, w.core.Stats.Instructions
}

// TestRestoredCorePicksSameWarps snapshots a core mid-run, with some warps
// ready and some blocked on translation, restores the image into a fresh
// core, and checks that it issues from the same warp every cycle as the
// uninterrupted core. The ready set is not in the image: restore must
// rebuild it from the warp states.
func TestRestoredCorePicksSameWarps(t *testing.T) {
	// 70 warps span two words of the ready set.
	const warps, quietFrom, snapAt, end = 70, 300, 400, 1500
	// No translation is answered in [quietFrom, snapAt), so the data side has
	// drained by snapAt and the restored core can adopt the replica's cache.
	answer := func(now int64) bool { return now%3 == 0 && (now < quietFrom || now >= snapAt) }
	for _, roundRobin := range []bool{false, true} {
		live, replica := newSchedWorld(warps, roundRobin), newSchedWorld(warps, roundRobin)
		for now := int64(0); now < snapAt; now++ {
			live.step(now, answer(now))
			replica.step(now, answer(now))
		}
		if len(replica.be.pending) != 0 || replica.l1d.NextEvent(snapAt) != engine.NoEvent || replica.core.retry.Len() != 0 {
			t.Fatal("data side still busy at the snapshot cycle")
		}
		st := replica.core.SnapshotState()

		// The restored core takes over the replica's cache, and with it the
		// pool its reads return through.
		restored := newSchedWorld(warps, roundRobin)
		restored.be, restored.l1d = replica.be, replica.l1d
		restored.core.l1d = replica.l1d
		restored.core.pool, restored.core.route = &replica.be.pool, replica.be.pool.Register(restored.core)
		if err := restored.core.RestoreState(&memreq.Wiring{Pool: &replica.be.pool}, st); err != nil {
			t.Fatal(err)
		}
		// The waiting translations are the TLB's state, not the core's: the
		// restored world takes them over as a restored L1 TLB would, handing
		// each to the core (Await) before the core finishes (Recount).
		for _, q := range replica.trans {
			w := &restored.core.warps[q.warp]
			if !restored.core.Await(q.warp, q.slot, restored.core.space.VPN(w.inst.Pages[q.slot].Lines[0])) {
				t.Fatalf("restored warp %d does not await its slot %d", q.warp, q.slot)
			}
		}
		if err := restored.core.Recount(); err != nil {
			t.Fatal(err)
		}
		restored.trans = append(restored.trans, replica.trans...)
		if n := readyWarps(restored.core); n == 0 || n == warps || n != readyWarps(live.core) {
			t.Fatalf("restored core has %d of %d warps ready, live core %d: want a mixed, equal set", n, warps, readyWarps(live.core))
		}

		for now := int64(snapAt); now < end; now++ {
			wantWarp, wantInsts := live.step(now, answer(now))
			gotWarp, gotInsts := restored.step(now, answer(now))
			if gotWarp != wantWarp || gotInsts != wantInsts {
				t.Fatalf("roundRobin=%v cycle %d: restored core on warp %d after %d instructions, live core on warp %d after %d",
					roundRobin, now, gotWarp, gotInsts, wantWarp, wantInsts)
			}
		}
		if restored.core.Stats != live.core.Stats {
			t.Fatalf("roundRobin=%v: restored stats %+v, live %+v", roundRobin, restored.core.Stats, live.core.Stats)
		}
	}
}

func TestRestoreRejectsCurrentWarpOutOfRange(t *testing.T) {
	core, be, _ := newTestCore(4, instantTranslate)
	st := core.SnapshotState()
	for _, current := range []int{-1, 4} {
		img := st
		img.Current = current
		if err := core.RestoreState(&memreq.Wiring{Pool: &be.pool}, img); err == nil || !strings.Contains(err.Error(), "current warp") {
			t.Errorf("Current=%d: error %v, want one naming the current warp", current, err)
		}
	}
}

// TestCoreDataDoneByWarpID pins the core's request sink finding its warp by
// the request's WarpID: with
// every warp of a full core parked on reads of its own lines, completing the
// reads issued for warp 63 must unblock warp 63 and nothing else, under both
// warp schedulers.
func TestCoreDataDoneByWarpID(t *testing.T) {
	for _, rr := range []bool{false, true} {
		const warps = 64
		be := &sink{delay: 1 << 40} // nothing returns until the test says so
		pool := &be.pool
		l1d := cache.New(cache.Config{
			Name: "l1", SizeBytes: 4096, Ways: 4, LineSize: 64,
			Banks: 1, PortsPerBank: 4, Latency: 1, QueueCap: 64,
		}, be, pool)
		// Read-only, no hot region, one private page per warp: no two warps
		// ever share a line, so every fill belongs to exactly one of them.
		p := workload.Profile{
			Name: "T", HotBytes: 4096, PrivateBytes: warps * 4096,
			PageStayProb: 1, SeqProb: 1, ComputePerMem: 2, Divergence: 1, LinesPerInst: 2,
		}
		streams := make([]*workload.Stream, warps)
		f := workload.NewStreamFactory(p, testBase, 4096, 64, warps, 5)
		for w := range streams {
			streams[w] = f.New(w)
		}
		core := New(0, 0, Config{WarpsPerCore: warps, RoundRobin: rr}, mappedSpace(p, warps),
			streams, instantTranslate, l1d, pool)
		for now := int64(0); now < 2000; now++ {
			core.Tick(now)
			l1d.Tick(now)
		}
		if readyWarps(core) != 0 || core.retry.Len() != 0 {
			t.Fatalf("rr=%v: %d warps ready, %d requests in retry; want every warp parked on data", rr, readyWarps(core), core.retry.Len())
		}
		outstanding := func(skip int) (n int) {
			for i := range core.warps {
				if i != skip {
					n += core.warps[i].OutstandingData
				}
			}
			return n
		}
		others := outstanding(63)
		returned := 0
		for _, pr := range be.pending {
			if pr.r.WarpID == 63 {
				pool.Complete(pr.r, 2000, memreq.ServedDRAM)
				returned++
			}
		}
		if returned == 0 {
			t.Fatalf("rr=%v: warp 63 has no fill outstanding at the backend", rr)
		}
		if w := &core.warps[63]; w.Phase != warpReady || w.OutstandingData != 0 {
			t.Fatalf("rr=%v: warp 63 still blocked (state %d, %d reads outstanding) after its %d fills returned", rr, w.Phase, w.OutstandingData, returned)
		}
		if readyWarps(core) != 1 || outstanding(63) != others {
			t.Fatalf("rr=%v: %d warps ready and %d reads outstanding elsewhere (was %d); only warp 63 may move", rr, readyWarps(core), outstanding(63), others)
		}
		core.Tick(2001)
		if core.current != 63 {
			t.Fatalf("rr=%v: scheduler picked warp %d, want the only ready warp 63", rr, core.current)
		}
	}
}
