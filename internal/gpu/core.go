// Package gpu models the SIMT shader cores: warps, the GTO (greedy-then-
// oldest) warp scheduler, memory-instruction issue, and the fine-grained
// multithreading whose breakdown under TLB misses is the paper's central
// observation (§4.1, Figure 4).
//
// Each core issues at most one instruction per cycle from one warp. Compute
// instructions retire immediately; a memory instruction blocks its warp until
// every translated read access completes, so the core's ability to hide
// memory latency depends entirely on other warps remaining schedulable —
// exactly the property a single shared TLB miss destroys when it stalls many
// warps at once.
package gpu

import (
	"fmt"
	"math/bits"

	"masksim/internal/cache"
	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/pagetable"
	"masksim/internal/slab"
	"masksim/internal/workload"
)

// TranslateFn looks up a virtual page for page slot of warpID's current
// memory instruction and reports whether it is translated at once (an L1 TLB
// hit); otherwise the L1 TLB records (warpID, slot) against the miss and
// calls Core.Translated when it returns. A nil TranslateFn (the Ideal
// configuration) translates every page at once.
type TranslateFn func(now int64, vpn uint64, warpID, slot int) bool

// Config holds the per-core parameters.
type Config struct {
	WarpsPerCore int
	// RoundRobin selects round-robin warp scheduling instead of the default
	// GTO (greedy-then-oldest, Rogers et al.; the paper's baseline).
	RoundRobin bool
}

// Stats aggregates one core's activity.
type Stats struct {
	Instructions uint64
	MemInsts     uint64
	ComputeInsts uint64
	// IdleCycles counts cycles with no schedulable warp — the visible
	// symptom of translation-induced stalls (Figure 4b).
	IdleCycles uint64
	Cycles     uint64

	// Stall anatomy (the paper's Figure 4): per completed memory
	// instruction, warp-cycles spent waiting for address translation vs
	// waiting for data after translation.
	TransStallCycles uint64
	DataStallCycles  uint64

	// Idle-cycle attribution: each IdleCycle is charged to exactly one
	// cause, so IdleTransCycles + IdleDataCycles + IdleOtherCycles ==
	// IdleCycles and Instructions + IdleCycles == Cycles. A cycle counts as
	// translation-bound if any blocked warp is still waiting on a TLB fill,
	// memory-bound if warps wait only on data, and "other" when the stall
	// is outside the memory system (group-sync barriers).
	IdleTransCycles uint64
	IdleDataCycles  uint64
	IdleOtherCycles uint64
}

// WarpPhase is whether a warp may issue or waits on a memory instruction.
type WarpPhase uint8

const (
	warpReady WarpPhase = iota
	warpWaitMem
)

// Warp is a warp's plain scheduling state, which the core ticks and a
// checkpoint writes as it is (WarpState).
type Warp struct {
	Phase           WarpPhase
	ComputeLeft     int
	OutstandingData int

	// IssuedAt and TransDoneAt delimit the translation phase of the current
	// memory instruction for stall-anatomy accounting.
	IssuedAt    int64
	TransDoneAt int64
}

type warp struct {
	Warp
	id int

	// pendingTrans counts inst's page slots waiting in the L1 TLB, which
	// restore recounts (Await).
	pendingTrans int

	// inst is the memory instruction the warp is blocked on. Its buffers
	// belong to stream and stay valid until the warp issues again, which it
	// cannot do before every page slot has been translated.
	inst workload.MemInst

	stream *workload.Stream
}

// Core is one shader core running a single application's warps.
type Core struct {
	id    int
	appID int
	cfg   Config
	// space is the application's address space: the one place a translated
	// page's frame is read from.
	space *pagetable.Space

	warps   []warp
	current int

	translate TranslateFn
	l1d       *cache.Cache

	// pool recycles data-access requests: the simulator's one pool. route
	// is the core's entry in its sink table, which data reads return on.
	pool  *memreq.Pool
	route memreq.Route

	retry engine.Queue[*memreq.Request]

	// ready has bit i set exactly while warps[i].Phase == warpReady, so the
	// schedulers walk ready warps instead of scanning the whole array.
	ready []uint64
	// waitTrans / waitData count blocked warps by phase (translation still
	// pending vs data only), maintained at warp state transitions so idle
	// cycles are attributed without scanning the warp array; a restore
	// recounts them (Recount).
	waitTrans int
	waitData  int

	Stats Stats
}

// New builds a core running in address space space, whose warps draw from
// the given streams (one per warp) and whose data accesses come from pool.
func New(id, appID int, cfg Config, space *pagetable.Space, streams []*workload.Stream, translate TranslateFn, l1d *cache.Cache, pool *memreq.Pool) *Core {
	return Renew(nil, id, appID, cfg, space, streams, translate, l1d, pool)
}

// Renew is New built in place over a donor: c is retired and comes back as
// New would return it, over the donor's buffers where they fit
// (docs/MODEL.md §11). streams is copied, not kept. A nil donor allocates
// everything.
func Renew(c *Core, id, appID int, cfg Config, space *pagetable.Space, streams []*workload.Stream, translate TranslateFn, l1d *cache.Cache, pool *memreq.Pool) *Core {
	if len(streams) != cfg.WarpsPerCore {
		panic("gpu: stream count must equal warps per core")
	}
	if c == nil {
		c = new(Core)
	}
	c.Retire()
	c.id, c.appID, c.cfg, c.space = id, appID, cfg, space
	c.translate, c.l1d, c.pool = translate, l1d, pool
	c.route = pool.Register(c)
	c.warps = slab.Slice(c.warps, cfg.WarpsPerCore)
	for i := range c.warps {
		c.warps[i] = warp{id: i, stream: streams[i]}
	}
	c.ready = slab.Slice(c.ready, (len(c.warps)+63)/64)
	c.Recount() // new warps hold no instruction: nothing to reject
	return c
}

// Retire empties c in place: what is left is the zero Core but for the
// capacity of its warp array, ready set and retry list, with nothing in
// them — no stream, no request, no pool, no address space, no neighbour
// (cache.Cache.Retire has the why).
func (c *Core) Retire() {
	d := *c
	*c = Core{
		warps: slab.Slice(d.warps, 0),
		ready: slab.Slice(d.ready, 0),
		retry: d.retry.Renewed(0, 0),
	}
}

// ID returns the core's global index.
func (c *Core) ID() int { return c.id }

// AppID returns the application the core is assigned to.
func (c *Core) AppID() int { return c.appID }

// Tick retries rejected cache submissions, then issues one instruction from
// the GTO-selected warp.
func (c *Core) Tick(now int64) {
	c.Stats.Cycles++

	if c.retry.Len() > 0 {
		pass := c.retry.Offers()
		for _, r := range pass.Items {
			if !c.l1d.Submit(now, r) {
				pass.Keep(r)
			}
		}
		pass.Done()
	}

	w := c.pickWarp()
	if w == nil {
		c.Stats.IdleCycles++
		switch {
		case c.waitTrans > 0:
			c.Stats.IdleTransCycles++
		case c.waitData > 0:
			c.Stats.IdleDataCycles++
		default:
			c.Stats.IdleOtherCycles++
		}
		return
	}
	c.issue(now, w)
}

// NextEvent implements engine.EventSource. The core is quiescent exactly when
// an immediate Tick would take the idle path: nothing queued for retry and no
// warp both ready and issuable. A blocked core cannot wake itself — warps
// unblock through Translated and RequestDone, called from other components'
// ticks, and group-sync barriers (workload.GroupSync) only advance when some
// core issues, which cannot happen during a span in which every core is
// quiescent — so the horizon is NoEvent rather than a future cycle.
func (c *Core) NextEvent(now int64) int64 {
	if c.retry.Len() > 0 || c.canIssue() {
		return now
	}
	return engine.NoEvent
}

// Recount derives the ready set and the blocked-warp counts from the warp
// states: at build, and at restore once the L1 TLB has counted each warp's
// pending translations (Await), which rejects a warp whose memory
// instruction has pages but none pending.
func (c *Core) Recount() error {
	clear(c.ready)
	c.waitTrans, c.waitData = 0, 0
	for i := range c.warps {
		switch w := &c.warps[i]; {
		case len(w.inst.Pages) > 0 && w.pendingTrans == 0:
			return fmt.Errorf("gpu: checkpoint warp %d of core %d has a %d-page instruction, but no L1 TLB miss waits for it", i, c.id, len(w.inst.Pages))
		case w.Phase == warpReady:
			c.ready[i/64] |= 1 << (i % 64)
		case w.pendingTrans > 0:
			c.waitTrans++
		default:
			c.waitData++
		}
	}
	return nil
}

// firstIssuable returns the lowest-numbered ready, issuable warp with index
// in [from, to), or nil.
func (c *Core) firstIssuable(from, to int) *warp {
	for wi := from / 64; wi*64 < to; wi++ {
		word := c.ready[wi]
		if wi == from/64 {
			word &^= 1<<(from%64) - 1
		}
		for ; word != 0; word &= word - 1 {
			i := wi*64 + bits.TrailingZeros64(word)
			if i >= to {
				return nil
			}
			if w := &c.warps[i]; issuable(w) {
				return w
			}
		}
	}
	return nil
}

// canIssue is pickWarp's selection predicate without the c.current mutation:
// it must leave scheduler state untouched so probing quiescence cannot
// perturb the GTO/round-robin pick order.
func (c *Core) canIssue() bool {
	return c.firstIssuable(0, len(c.warps)) != nil
}

// SkipTo implements engine.Skipper: every skipped cycle is an idle cycle
// (the engine only skips while NextEvent reports quiescence), charged to the
// same attribution bucket Tick would have picked. waitTrans/waitData are
// frozen across the span — they only change in Translated and RequestDone,
// called from other components' ticks — so one bucket covers the whole span.
func (c *Core) SkipTo(from, to int64) {
	d := uint64(to - from)
	c.Stats.Cycles += d
	c.Stats.IdleCycles += d
	switch {
	case c.waitTrans > 0:
		c.Stats.IdleTransCycles += d
	case c.waitData > 0:
		c.Stats.IdleDataCycles += d
	default:
		c.Stats.IdleOtherCycles += d
	}
}

// pickWarp selects the next warp. Under GTO (default) it keeps issuing from
// the current warp while it is ready, falling back to the oldest (lowest-ID)
// ready warp; under round-robin it rotates past the current warp each pick.
// A warp whose next instruction is a memory access blocked on its group
// barrier (workload.GroupSync) is skipped: it occupies no issue slot until
// its group catches up.
func (c *Core) pickWarp() *warp {
	n := len(c.warps)
	var w *warp
	if c.cfg.RoundRobin {
		// Rotation order: current+1 … n-1, then 0 … current.
		if w = c.firstIssuable(c.current+1, n); w == nil {
			w = c.firstIssuable(0, c.current+1)
		}
	} else {
		if w = &c.warps[c.current]; w.Phase == warpReady && issuable(w) {
			return w
		}
		w = c.firstIssuable(0, n)
	}
	if w != nil {
		c.current = w.id
	}
	return w
}

func issuable(w *warp) bool {
	return w.ComputeLeft > 0 || !w.stream.SyncStalled()
}

func (c *Core) issue(now int64, w *warp) {
	c.Stats.Instructions++
	if w.ComputeLeft > 0 {
		w.ComputeLeft--
		c.Stats.ComputeInsts++
		return
	}
	c.Stats.MemInsts++
	c.issueMem(now, w)
}

// issueMem launches one coalesced memory instruction: every distinct page is
// translated once, and each translated page yields its line accesses. The
// warp blocks until all reads complete; stores retire through the write
// buffer and do not block beyond their translation.
func (c *Core) issueMem(now int64, w *warp) {
	inst := w.stream.NextMem()
	w.Phase = warpWaitMem
	c.ready[w.id/64] &^= 1 << (w.id % 64)
	c.waitTrans++ // before the loop: an immediate translation lands inside it
	w.pendingTrans = len(inst.Pages)
	w.OutstandingData = 0
	w.IssuedAt = now
	w.TransDoneAt = now
	w.inst = inst

	for slot, pg := range inst.Pages {
		if c.translate == nil || c.translate(now, c.space.VPN(pg.Lines[0]), w.id, slot) {
			c.Translated(now, w.id, slot)
		}
	}
}

// Translated lands the translation of page slot of warpID's current memory
// instruction — from issueMem on an immediate translation, from the L1 TLB
// when a miss returns — reads the page's frame from the address space and
// issues the page's line accesses.
func (c *Core) Translated(now int64, warpID, slot int) {
	w := &c.warps[warpID]
	lines, isWrite := w.inst.Pages[slot].Lines, w.inst.Write
	w.pendingTrans--
	if w.pendingTrans == 0 {
		w.TransDoneAt = now
		c.waitTrans--
		c.waitData++
	}
	frame, ok := c.space.TranslateVPN(c.space.VPN(lines[0]))
	if !ok {
		panic("gpu: translated page is not mapped")
	}
	base, pageMask := frame*pagetable.FrameSize, uint64(c.space.PageSize())-1
	for _, va := range lines {
		pa := base + (va & pageMask)
		req := c.pool.Get()
		req.AppID, req.CoreID, req.WarpID = c.appID, c.id, w.id
		req.Class, req.Addr, req.Issue = memreq.Data, pa, now
		if isWrite {
			req.Kind = memreq.Write
			// Fire-and-forget through the write buffer.
		} else {
			req.Kind = memreq.Read
			w.OutstandingData++
			req.Ret = c.route
		}
		if !c.l1d.Submit(now, req) {
			c.retry.Push(now, req)
		}
	}
	c.maybeUnblock(now, w)
}

// RequestDone implements memreq.Sink: a data read returned; its WarpID names
// the warp it unblocks.
func (c *Core) RequestDone(now int64, r *memreq.Request) {
	w := &c.warps[r.WarpID]
	w.OutstandingData--
	c.maybeUnblock(now, w)
}

func (c *Core) maybeUnblock(now int64, w *warp) {
	if w.Phase == warpWaitMem && w.pendingTrans == 0 && w.OutstandingData == 0 {
		c.Stats.TransStallCycles += uint64(w.TransDoneAt - w.IssuedAt)
		c.Stats.DataStallCycles += uint64(now - w.TransDoneAt)
		c.waitData--
		w.Phase = warpReady
		c.ready[w.id/64] |= 1 << (w.id % 64)
		w.ComputeLeft = w.stream.NextComputeGap()
	}
}
