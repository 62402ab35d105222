// Package dram models the GPU's GDDR5 main memory: channels, banks, row
// buffers, and each channel's request scheduler.
//
// The model captures the behaviours §4.3 and §5.4 of the paper depend on:
// row-buffer locality (row hits are much cheaper than row conflicts), a
// shared data bus per channel, and a scheduler that decides which queued
// request to service next. There is one scheduler (sched.go) with three
// arrival-order queues and a Policy: the baseline FR-FCFS, and FCFS, use the
// Normal queue alone; MASK's Address-Space-Aware scheduler adds the Golden
// and Silver queues in front of it.
package dram

import (
	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/slab"
)

// Config describes the DRAM subsystem (paper Table 1: GDDR5, 8 channels,
// 8 banks, FR-FCFS, burst length 8).
type Config struct {
	Channels        int
	BanksPerChannel int
	RowBytes        int
	LineSize        int

	// Latencies are in GPU core cycles.
	RowHitLatency    int64 // CAS only
	RowClosedLatency int64 // activate + CAS
	RowConflictLat   int64 // precharge + activate + CAS
	BusCycles        int64 // data-bus occupancy per transfer (burst)
	// SameRowGap is the column-to-column command gap (tCCD): consecutive
	// accesses to an open row pipeline at this rate, even though each one's
	// data latency is RowHitLatency. This is what makes coalesced streaming
	// cheap and makes row-missing (translation) requests comparatively
	// expensive — the asymmetry behind the paper's Figure 9.
	SameRowGap int64

	// ClosedRowPolicy precharges after every access (§7.3 sensitivity).
	ClosedRowPolicy bool

	// QueueCap bounds each channel's request buffer.
	QueueCap int
}

// DefaultConfig mirrors the paper's Table 1 memory configuration with timing
// expressed in 1020MHz core cycles.
func DefaultConfig() Config {
	return Config{
		Channels:         8,
		BanksPerChannel:  16,
		RowBytes:         4096,
		LineSize:         64,
		RowHitLatency:    20,
		RowClosedLatency: 45,
		RowConflictLat:   65,
		BusCycles:        2,
		SameRowGap:       4,
		QueueCap:         256,
	}
}

// Queued is a request waiting in (or in flight from) a channel.
type Queued struct {
	Req     *memreq.Request
	Arrival int64
	Bank    int
	Row     int64
	finish  int64
}

// Bank is the visible state of one DRAM bank, consulted by schedulers.
type Bank struct {
	OpenRow int64 // -1 when closed
	ReadyAt int64
}

// ClassCounters aggregates per-traffic-class DRAM statistics.
type ClassCounters struct {
	Requests  uint64
	BusCycles uint64
	LatSum    uint64 // cycles from channel arrival to data completion

	RowHits      uint64
	RowClosed    uint64
	RowConflicts uint64
}

// AvgLatency returns the mean queueing+service latency.
func (c ClassCounters) AvgLatency() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.LatSum) / float64(c.Requests)
}

type channel struct {
	banks      []Bank
	sched      sched
	busReadyAt int64
	inflight   []*Queued
	// nextFinish is the earliest finish cycle in inflight (engine.NoEvent when
	// empty), kept exact so Tick skips the completion scan until it is due.
	nextFinish int64
}

// setInflight replaces the channel's in-flight list and recomputes
// nextFinish from it.
func (ch *channel) setInflight(qs []*Queued) {
	ch.inflight = qs
	ch.nextFinish = engine.NoEvent
	for _, q := range qs {
		ch.nextFinish = min(ch.nextFinish, q.finish)
	}
}

// DRAM is the full memory subsystem. It implements cache.Backend.
type DRAM struct {
	cfg       Config
	lineShift uint
	channels  []channel

	// Class is indexed by memreq.Class.
	Class [2]ClassCounters
	// perAppBus counts each application's data-bus cycles, indexed by AppID.
	perAppBus []uint64

	// drop is a fault-injection hook: when it returns true for a completing
	// transfer, the response is discarded (the request never returns to its
	// sink). Used to prove the watchdog catches hung memory dependents.
	drop func(now int64) bool

	// pool completes the requests DRAM serves: the simulator's one pool.
	pool *memreq.Pool

	// qFree recycles Queued wrappers: Submit takes one, and it returns when
	// the scheduler refuses it or its transfer completes. A scheduler never
	// retains a Queued after pick, so recycling at completion is safe.
	qFree slab.List[Queued]
}

// New builds the DRAM model, which completes its requests through pool;
// every channel schedules by sc.
func New(cfg Config, sc SchedConfig, pool *memreq.Pool) *DRAM { return Renew(nil, cfg, sc, pool) }

// Renew is New built in place over a donor: d is retired and comes back as
// New would return it, over the donor's buffers where they fit
// (docs/MODEL.md §11). A nil donor allocates everything.
func Renew(d *DRAM, cfg Config, sc SchedConfig, pool *memreq.Pool) *DRAM {
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	if d == nil {
		d = new(DRAM)
	}
	d.Retire()
	d.cfg, d.lineShift, d.pool = cfg, shift, pool
	d.perAppBus = slab.Slice(d.perAppBus, max(sc.Apps, 1))
	d.channels = slab.Donors(d.channels, cfg.Channels)
	for i := range d.channels {
		ch := &d.channels[i]
		ch.banks = slab.Slice(ch.banks, cfg.BanksPerChannel)
		for b := range ch.banks {
			ch.banks[b].OpenRow = -1
		}
		ch.sched.renew(sc, cfg.QueueCap)
		ch.nextFinish = engine.NoEvent
	}
	return d
}

// Retire empties d in place: what is left is the zero DRAM but for the
// capacity of its channels' bank arrays, scheduler queues and in-flight
// lists, its per-app counters and its queue wrappers, with nothing in them.
// No request, no pool, no hook, no pressure callback (cache.Cache.Retire has
// the why): a queue left as it was would pin the wrappers a Rewind let go,
// and through them the requests they held.
func (d *DRAM) Retire() {
	old := *d
	old.qFree.Rewind() // the wrappers are what holds the queued requests
	old.channels = old.channels[:cap(old.channels)]
	for i := range old.channels {
		ch := &old.channels[i]
		*ch = channel{banks: slab.Slice(ch.banks, 0), sched: ch.sched.retired(), inflight: slab.Grown(ch.inflight)}
	}
	*d = DRAM{channels: old.channels, perAppBus: slab.Slice(old.perAppBus, 0), qFree: old.qFree}
}

// frameShift is log2 of the 4KB physical frame used for channel
// interleaving; it matches pagetable.FrameSize.
const frameShift = 12

// Map decomposes a physical address into (channel, bank, row).
//
// Interleaving is frame-granular: a whole 4KB frame lives on one channel, so
// (1) sequential lines within a frame share a row buffer (streaming patterns
// enjoy row hits) and (2) the Static baseline can partition channels between
// applications by constraining frame allocation (ChannelOfFrame).
// Consecutive frames rotate across channels, spreading bandwidth.
func (d *DRAM) Map(addr uint64) (chanIdx, bank int, row int64) {
	frame := addr >> frameShift
	chanIdx = int(frame % uint64(d.cfg.Channels))
	fc := frame / uint64(d.cfg.Channels)
	bank = int(fc % uint64(d.cfg.BanksPerChannel))
	rowsPerFrame := int64((1 << frameShift) / d.cfg.RowBytes)
	if rowsPerFrame < 1 {
		rowsPerFrame = 1
	}
	rowInFrame := int64(addr&((1<<frameShift)-1)) / int64(d.cfg.RowBytes)
	if rowInFrame >= rowsPerFrame {
		rowInFrame = rowsPerFrame - 1
	}
	row = int64(fc/uint64(d.cfg.BanksPerChannel))*rowsPerFrame + rowInFrame
	return
}

// ChannelOfFrame returns the DRAM channel that physical frame number frame
// maps to; the Static baseline's allocator constraint uses it to confine an
// application's footprint (data and page tables) to its channel partition.
func (d *DRAM) ChannelOfFrame(frame uint64) int {
	return int(frame % uint64(d.cfg.Channels))
}

// Submit implements cache.Backend: route the request to its channel queue.
func (d *DRAM) Submit(now int64, r *memreq.Request) bool {
	chanIdx, bank, row := d.Map(r.Addr)
	q := d.qFree.Get()
	*q = Queued{Req: r, Arrival: now, Bank: bank, Row: row}
	if !d.channels[chanIdx].sched.enqueue(q) {
		d.qFree.Put(q)
		return false
	}
	return true
}

// Tick advances every channel: completes finished transfers and issues new
// ones chosen by the scheduler.
func (d *DRAM) Tick(now int64) {
	for i := range d.channels {
		ch := &d.channels[i]

		// Complete transfers whose data has arrived, in list order.
		if ch.nextFinish <= now {
			nkeep := 0
			for _, q := range ch.inflight {
				if q.finish <= now {
					d.complete(now, q)
				} else {
					ch.inflight[nkeep] = q
					nkeep++
				}
			}
			ch.setInflight(ch.inflight[:nkeep])
		}

		// Issue one request per cycle if the scheduler has a ready candidate.
		q := ch.sched.pick(now, ch.banks)
		if q == nil {
			continue
		}
		bank := &ch.banks[q.Bank]
		cls := q.Req.Class
		var svc int64
		switch {
		case bank.OpenRow == q.Row:
			svc = d.cfg.RowHitLatency
			d.Class[cls].RowHits++
		case bank.OpenRow < 0:
			svc = d.cfg.RowClosedLatency
			d.Class[cls].RowClosed++
		default:
			svc = d.cfg.RowConflictLat
			d.Class[cls].RowConflicts++
		}
		finish := now + svc
		if t := ch.busReadyAt + d.cfg.BusCycles; t > finish {
			finish = t
		}
		ch.busReadyAt = finish
		// Banks are pipelined two ways: the data transfer overlaps on the
		// shared bus while the bank works, and row hits accept the next
		// column command after only SameRowGap cycles, so a coalesced burst
		// streams out of an open row far faster than its per-request
		// latency.
		if bank.OpenRow == q.Row && !d.cfg.ClosedRowPolicy {
			gap := d.cfg.SameRowGap
			if gap <= 0 {
				gap = svc
			}
			bank.ReadyAt = now + gap
		} else {
			bank.ReadyAt = now + svc
		}
		if d.cfg.ClosedRowPolicy {
			bank.OpenRow = -1
		} else {
			bank.OpenRow = q.Row
		}
		q.finish = finish
		ch.inflight = append(ch.inflight, q)
		ch.nextFinish = min(ch.nextFinish, finish)

		d.Class[cls].BusCycles += uint64(d.cfg.BusCycles)
		d.perAppBus[q.Req.AppID] += uint64(d.cfg.BusCycles)
	}
}

// NextEvent implements engine.EventSource: the minimum over channels of the
// earliest in-flight completion and the scheduler's earliest possible issue.
// Fault-injection drop hooks need no special case — they are consulted at
// completion cycles, which are exactly the cycles this horizon wakes.
func (d *DRAM) NextEvent(now int64) int64 {
	h := engine.NoEvent
	for i := range d.channels {
		ch := &d.channels[i]
		h = min(h, ch.nextFinish, ch.sched.nextReady(now, ch.banks))
		if h <= now {
			return now
		}
	}
	return h
}

// Epoch rolls every channel scheduler's epoch: MASK rotates the silver turn;
// the other policies keep no epoch state.
func (d *DRAM) Epoch() {
	for i := range d.channels {
		d.channels[i].sched.epoch()
	}
}

// SetDropHook installs a fault-injection hook consulted when a transfer
// completes; returning true silently discards the response. Pass nil to
// clear.
func (d *DRAM) SetDropHook(fn func(now int64) bool) {
	d.drop = fn
}

func (d *DRAM) complete(now int64, q *Queued) {
	req := q.Req
	cls := req.Class
	d.Class[cls].Requests++
	d.Class[cls].LatSum += uint64(now - q.Arrival)
	d.qFree.Put(q)
	if d.drop != nil && d.drop(now) {
		return // the Request is stranded by design (fault injection)
	}
	d.pool.Complete(req, now, memreq.ServedDRAM)
}

// BandwidthUtil returns the fraction of the channel-cycles 1 … now−1 during
// which the data buses were busy for the given class, in a run now cycles
// long. This feeds the paper's Figure 8 reproduction.
func (d *DRAM) BandwidthUtil(class memreq.Class, now int64) float64 {
	elapsed := now - 1
	if elapsed <= 0 {
		return 0
	}
	total := float64(elapsed) * float64(d.cfg.Channels)
	return float64(d.Class[class].BusCycles) / total
}

// AppBusCycles returns the data-bus cycles consumed by app.
func (d *DRAM) AppBusCycles(app int) uint64 {
	if app < 0 || app >= len(d.perAppBus) {
		return 0
	}
	return d.perAppBus[app]
}

// QueueLen returns the number of queued (not yet issued) requests.
func (d *DRAM) QueueLen() int {
	n := 0
	for i := range d.channels {
		n += d.channels[i].sched.len()
	}
	return n
}

// Inflight returns the number of issued-but-incomplete transfers.
func (d *DRAM) Inflight() int {
	n := 0
	for i := range d.channels {
		n += len(d.channels[i].inflight)
	}
	return n
}
