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
	"math/bits"

	"masksim/internal/cache"
	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/slab"
	"masksim/internal/workload"
)

// TranslateFn resolves a virtual page for a warp; done receives the physical
// frame. Implementations wrap the L1 TLB, or the instantaneous page-table
// lookup in the Ideal configuration.
type TranslateFn func(now int64, vpn uint64, warpID int, done func(now int64, frame uint64))

// Config holds the per-core parameters.
type Config struct {
	WarpsPerCore int
	PageShift    uint
	FrameSize    uint64
	LineSize     uint64
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

// IPC returns instructions per cycle for this core.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

type warpState uint8

const (
	warpReady warpState = iota
	warpWaitMem
)

type warp struct {
	id          int
	state       warpState
	computeLeft int

	pendingTrans    int
	outstandingData int

	// issuedAt and transDoneAt delimit the translation phase of the current
	// memory instruction for stall-anatomy accounting.
	issuedAt    int64
	transDoneAt int64

	stream *workload.Stream
}

// transCtx carries one page-translation callback's context. Contexts are
// recycled through the core's free list: the done closure is bound once, when
// the context is first handed out, and the per-page fields are reassigned on
// reuse. A context is checked back in the moment its callback fires; a
// translation that never completes (fault-injection wedge) strands its
// context harmlessly.
type transCtx struct {
	w       *warp
	lines   []uint64
	isWrite bool
	done    func(now int64, frame uint64)

	// prev/next thread the core's live-context list (liveHead/liveTail):
	// every context currently waiting on a translation callback, in creation
	// order. Checkpoint restore replays this list to rebuild the L1 TLB MSHR
	// waiting lists in their original order.
	prev, next *transCtx
}

// Core is one shader core running a single application's warps.
type Core struct {
	id    int
	appID int
	cfg   Config

	warps   []warp
	current int

	translate TranslateFn
	l1d       *cache.Cache
	idgen     *memreq.IDGen

	// pool recycles data-access requests; New creates a private pool, the
	// simulator injects its shared one.
	pool    *memreq.Pool
	ctxFree slab.List[transCtx]
	// dataDone is the completion handler of every read the core issues,
	// bound once at construction; the request's WarpID names the warp.
	dataDone func(now int64, r *memreq.Request)

	// liveHead/liveTail anchor the in-flight translation contexts in creation
	// order (see transCtx.prev/next). attachWaiter, installed by the
	// simulator, re-registers a restored context's callback with the L1 TLB
	// during checkpoint restore.
	liveHead, liveTail *transCtx
	attachWaiter       func(vpn uint64, done func(now int64, frame uint64))

	retry []*memreq.Request

	// ready has bit i set exactly while warps[i].state == warpReady, so the
	// schedulers walk ready warps instead of scanning the whole array.
	ready []uint64
	// waitTrans / waitData count blocked warps by phase (translation still
	// pending vs data only), maintained at warp state transitions so idle
	// cycles are attributed without scanning the warp array.
	waitTrans int
	waitData  int

	Stats Stats
}

// New builds a core whose warps draw from the given streams (one per warp).
func New(id, appID int, cfg Config, streams []*workload.Stream, translate TranslateFn, l1d *cache.Cache, idgen *memreq.IDGen) *Core {
	if len(streams) != cfg.WarpsPerCore {
		panic("gpu: stream count must equal warps per core")
	}
	c := &Core{
		id:        id,
		appID:     appID,
		cfg:       cfg,
		warps:     make([]warp, cfg.WarpsPerCore),
		translate: translate,
		l1d:       l1d,
		idgen:     idgen,
		pool:      &memreq.Pool{},
	}
	for i := range c.warps {
		c.warps[i] = warp{id: i, stream: streams[i]}
	}
	c.dataDone = func(dnow int64, r *memreq.Request) {
		w := &c.warps[r.WarpID]
		w.outstandingData--
		c.maybeUnblock(dnow, w)
	}
	c.ready = make([]uint64, (len(c.warps)+63)/64)
	c.rebuildReady()
	return c
}

// SetRequestPool replaces the core's private request pool with a shared
// per-simulator one. Must be called before simulation starts.
func (c *Core) SetRequestPool(p *memreq.Pool) { c.pool = p }

// getCtx takes a translation context off the free list, binding the done
// handler of one handed out for the first time, and links it live.
func (c *Core) getCtx() *transCtx {
	ctx, fresh := c.ctxFree.Get()
	if fresh {
		ctx.done = func(tnow int64, frame uint64) {
			// Copy out and recycle first: onTranslated never re-enters
			// getCtx, and releasing here keeps the context live for exactly
			// one callback.
			w, lines, isWrite := ctx.w, ctx.lines, ctx.isWrite
			ctx.w, ctx.lines = nil, nil
			c.unlinkCtx(ctx)
			c.ctxFree.Put(ctx)
			c.onTranslated(tnow, w, lines, frame, isWrite)
		}
	}
	c.linkCtx(ctx)
	return ctx
}

// linkCtx appends ctx to the live list.
func (c *Core) linkCtx(ctx *transCtx) {
	ctx.prev = c.liveTail
	ctx.next = nil
	if c.liveTail != nil {
		c.liveTail.next = ctx
	} else {
		c.liveHead = ctx
	}
	c.liveTail = ctx
}

// unlinkCtx removes ctx from the live list.
func (c *Core) unlinkCtx(ctx *transCtx) {
	if ctx.prev != nil {
		ctx.prev.next = ctx.next
	} else {
		c.liveHead = ctx.next
	}
	if ctx.next != nil {
		ctx.next.prev = ctx.prev
	} else {
		c.liveTail = ctx.prev
	}
	ctx.prev, ctx.next = nil, nil
}

// ID returns the core's global index.
func (c *Core) ID() int { return c.id }

// AppID returns the application the core is assigned to.
func (c *Core) AppID() int { return c.appID }

// ReadyWarps returns the number of schedulable warps (metrics helper).
func (c *Core) ReadyWarps() int {
	n := 0
	for _, word := range c.ready {
		n += bits.OnesCount64(word)
	}
	return n
}

// Tick retries rejected cache submissions, then issues one instruction from
// the GTO-selected warp.
func (c *Core) Tick(now int64) {
	c.Stats.Cycles++

	if len(c.retry) > 0 {
		nkeep := 0
		for _, r := range c.retry {
			if !c.l1d.Submit(now, r) {
				c.retry[nkeep] = r
				nkeep++
			}
		}
		c.retry = c.retry[:nkeep]
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
// unblock through translation/data callbacks fired by other components'
// ticks, and group-sync barriers (workload.GroupSync) only advance when some
// core issues, which cannot happen during a span in which every core is
// quiescent — so the horizon is NoEvent rather than a future cycle.
func (c *Core) NextEvent(now int64) int64 {
	if len(c.retry) > 0 || c.canIssue() {
		return now
	}
	return engine.NoEvent
}

// rebuildReady derives the ready set from the warp states.
func (c *Core) rebuildReady() {
	clear(c.ready)
	for i := range c.warps {
		if c.warps[i].state == warpReady {
			c.ready[i/64] |= 1 << (i % 64)
		}
	}
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
// frozen across the span — they only change in callbacks, which only fire
// from other components' ticks — so one bucket covers the whole span.
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
		if w = &c.warps[c.current]; w.state == warpReady && issuable(w) {
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
	return w.computeLeft > 0 || !w.stream.SyncStalled()
}

func (c *Core) issue(now int64, w *warp) {
	c.Stats.Instructions++
	if w.computeLeft > 0 {
		w.computeLeft--
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
	w.state = warpWaitMem
	c.ready[w.id/64] &^= 1 << (w.id % 64)
	c.waitTrans++ // before translate: the callback may fire synchronously
	w.pendingTrans = len(inst.Pages)
	w.outstandingData = 0
	w.issuedAt = now
	w.transDoneAt = now
	isWrite := inst.Write

	for _, pg := range inst.Pages {
		lines := pg.Lines
		vpn := lines[0] >> c.cfg.PageShift
		ctx := c.getCtx()
		ctx.w, ctx.lines, ctx.isWrite = w, lines, isWrite
		c.translate(now, vpn, w.id, ctx.done)
	}
}

func (c *Core) onTranslated(now int64, w *warp, lines []uint64, frame uint64, isWrite bool) {
	w.pendingTrans--
	if w.pendingTrans == 0 {
		w.transDoneAt = now
		c.waitTrans--
		c.waitData++
	}
	pageMask := (uint64(1) << c.cfg.PageShift) - 1
	for _, va := range lines {
		pa := frame*c.cfg.FrameSize + (va & pageMask)
		req := c.pool.Get()
		req.ID, req.AppID, req.CoreID, req.WarpID = c.idgen.Next(), c.appID, c.id, w.id
		req.Class, req.Addr, req.Issue = memreq.Data, pa, now
		if isWrite {
			req.Kind = memreq.Write
			// Fire-and-forget through the write buffer.
		} else {
			req.Kind = memreq.Read
			w.outstandingData++
			req.Done = c.dataDone
			req.Site = memreq.SiteCoreData
		}
		if !c.l1d.Submit(now, req) {
			c.retry = append(c.retry, req)
		}
	}
	c.maybeUnblock(now, w)
}

func (c *Core) maybeUnblock(now int64, w *warp) {
	if w.state == warpWaitMem && w.pendingTrans == 0 && w.outstandingData == 0 {
		c.Stats.TransStallCycles += uint64(w.transDoneAt - w.issuedAt)
		c.Stats.DataStallCycles += uint64(now - w.transDoneAt)
		c.waitData--
		w.state = warpReady
		c.ready[w.id/64] |= 1 << (w.id % 64)
		w.computeLeft = w.stream.NextComputeGap()
	}
}
