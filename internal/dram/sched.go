package dram

import (
	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/slab"
)

// renewQueue returns an empty request queue with room for capacity entries
// (a bounded queue never grows past it; 0 = unbounded, grown on demand), over
// the donor's array when that fits.
func renewQueue(old []*Queued, capacity int) []*Queued {
	if capacity == 0 {
		return slab.Grown(old)
	}
	return slab.Slice(old, capacity)[:0]
}

// nextReadySched returns the earliest cycle >= now at which some request in
// queue could have a ready bank: now if any already does, the minimum bank
// ReadyAt otherwise, engine.NoEvent for an empty queue. This is deliberately
// conservative (early): a policy may decline to pick even with a ready bank
// (MASKSched's golden-age deferral), but every such deferral resolves through
// either a row-hit service or pure aging, both of which require ticking —
// and a ready bank forces "now" here, so those cycles are never skipped.
func nextReadySched(queue []*Queued, now int64, banks []Bank) int64 {
	h := engine.NoEvent
	for _, q := range queue {
		if r := banks[q.Bank].ReadyAt; r <= now {
			return now
		} else if r < h {
			h = r
		}
	}
	return h
}

// FRFCFS is the baseline First-Ready, First-Come-First-Served scheduler
// (Rixner et al. / Zuravleff & Robinson): among requests whose bank is ready,
// prefer a row-buffer hit; otherwise take the oldest. GPGPU data streams have
// high row locality, which is exactly why FR-FCFS de-prioritises the
// low-locality translation requests (§4.3, Figure 9).
type FRFCFS struct {
	cap   int
	queue []*Queued
}

// NewFRFCFS returns an FR-FCFS scheduler with the given queue capacity
// (0 = unbounded).
func NewFRFCFS(capacity int) *FRFCFS { return RenewFRFCFS(nil, capacity) }

// RenewFRFCFS is NewFRFCFS built in place over old when that is an *FRFCFS,
// keeping only its queue's capacity (docs/MODEL.md §11); any other donor is
// dropped.
func RenewFRFCFS(old Scheduler, capacity int) *FRFCFS {
	s, _ := old.(*FRFCFS)
	s, d := slab.Lift(s)
	*s = FRFCFS{cap: capacity, queue: renewQueue(d.queue, capacity)}
	return s
}

// Enqueue implements Scheduler.
func (s *FRFCFS) Enqueue(now int64, q *Queued) bool {
	if s.cap > 0 && len(s.queue) >= s.cap {
		return false
	}
	s.queue = append(s.queue, q)
	return true
}

// Len implements Scheduler.
func (s *FRFCFS) Len() int { return len(s.queue) }

// Pick implements Scheduler.
func (s *FRFCFS) Pick(now int64, banks []Bank) *Queued {
	idx := pickFRFCFS(s.queue, now, banks)
	if idx < 0 {
		return nil
	}
	return s.remove(idx)
}

func (s *FRFCFS) remove(idx int) *Queued {
	q := s.queue[idx]
	copy(s.queue[idx:], s.queue[idx+1:])
	s.queue = s.queue[:len(s.queue)-1]
	return q
}

// NextReady implements Scheduler.
func (s *FRFCFS) NextReady(now int64, banks []Bank) int64 {
	return nextReadySched(s.queue, now, banks)
}

// pickFRFCFS returns the index of the FR-FCFS choice in queue, or -1.
// Queues are kept in arrival order, so the first row-hit found is the oldest
// row-hit, and the first ready request found is the oldest ready request.
func pickFRFCFS(queue []*Queued, now int64, banks []Bank) int {
	oldestReady := -1
	for i, q := range queue {
		b := &banks[q.Bank]
		if b.ReadyAt > now {
			continue
		}
		if b.OpenRow == q.Row {
			return i // oldest row hit
		}
		if oldestReady < 0 {
			oldestReady = i
		}
	}
	return oldestReady
}

// PressureFunc reports, for an application, the two per-app metrics the
// Address-Space-Aware scheduler's Silver-Queue quota uses (§5.4 Eq. 1):
// the number of concurrent page walks and the number of warps stalled per
// active TLB miss. The TLB subsystem provides the implementation.
type PressureFunc func(app int) (concurrentPTW, warpsStalled float64)

// MASKSched is the Address-Space-Aware DRAM scheduler (§5.4). It splits the
// request buffer into three queues:
//
//   - Golden: a small FIFO holding address translation requests; always
//     serviced first. Translation requests have low row locality, so FIFO
//     order costs nothing (paper footnote 7).
//   - Silver: data demand requests of the one application currently holding
//     the silver turn; protects stall-prone applications from
//     bandwidth hogs.
//   - Normal: everything else, FR-FCFS.
//
// Applications take turns in the Silver Queue; each turn admits thresh_i
// requests computed from Equation 1.
// goldenAgeCap bounds how long a golden request defers to row-hit runs.
const goldenAgeCap = 400

type MASKSched struct {
	goldenCap, silverCap, normalCap int
	threshMax                       int
	numApps                         int
	pressure                        PressureFunc

	golden []*Queued
	silver []*Queued
	normal []*Queued

	silverApp   int
	silverQuota int
}

// NewMASKSched builds the scheduler. pressure may be nil (quotas then split
// evenly). Queue capacities follow §7.4: 16-entry Golden, 64-entry Silver,
// 192-entry Normal.
func NewMASKSched(numApps, threshMax int, pressure PressureFunc) *MASKSched {
	return RenewMASKSched(nil, numApps, threshMax, pressure)
}

// RenewMASKSched is NewMASKSched built in place over old when that is a
// *MASKSched, keeping only its queues' capacity (docs/MODEL.md §11).
func RenewMASKSched(old Scheduler, numApps, threshMax int, pressure PressureFunc) *MASKSched {
	if numApps < 1 {
		numApps = 1
	}
	s, _ := old.(*MASKSched)
	s, d := slab.Lift(s)
	*s = MASKSched{
		goldenCap: 16, silverCap: 64, normalCap: 192,
		threshMax: threshMax,
		numApps:   numApps,
		pressure:  pressure,
	}
	s.golden = renewQueue(d.golden, s.goldenCap)
	s.silver = renewQueue(d.silver, s.silverCap)
	s.normal = renewQueue(d.normal, s.normalCap)
	s.silverApp = 0
	s.silverQuota = s.quotaFor(0)
	return s
}

// quotaFor evaluates Equation 1 for app i. A non-positive threshMax disables
// the Silver Queue entirely (ablation knob: Golden Queue only).
func (s *MASKSched) quotaFor(app int) int {
	if s.threshMax <= 0 {
		return 0
	}
	if s.pressure == nil || s.numApps == 1 {
		return s.threshMax / s.numApps
	}
	var sum, mine float64
	for j := 0; j < s.numApps; j++ {
		c, w := s.pressure(j)
		p := c * w
		sum += p
		if j == app {
			mine = p
		}
	}
	if sum <= 0 {
		return s.threshMax / s.numApps
	}
	q := int(float64(s.threshMax) * mine / sum)
	if q < 1 {
		q = 1
	}
	return q
}

// Enqueue implements Scheduler. Translation requests enter the Golden Queue
// (falling back to Silver, then Normal, if full). Data requests from the
// silver-turn application enter the Silver Queue while its quota lasts.
func (s *MASKSched) Enqueue(now int64, q *Queued) bool {
	if q.Req.Class == memreq.Translation {
		switch {
		case len(s.golden) < s.goldenCap:
			s.golden = append(s.golden, q)
		case len(s.silver) < s.silverCap:
			s.silver = append(s.silver, q)
		case len(s.normal) < s.normalCap:
			s.normal = append(s.normal, q)
		default:
			return false
		}
		return true
	}
	if q.Req.AppID == s.silverApp && s.silverQuota > 0 && len(s.silver) < s.silverCap {
		s.silver = append(s.silver, q)
		s.silverQuota--
		if s.silverQuota == 0 {
			s.advanceSilver()
		}
		return true
	}
	if len(s.normal) < s.normalCap {
		s.normal = append(s.normal, q)
		return true
	}
	return false
}

func (s *MASKSched) advanceSilver() {
	s.silverApp = (s.silverApp + 1) % s.numApps
	s.silverQuota = s.quotaFor(s.silverApp)
}

// Epoch forces a silver-turn rotation. The paper resets the scheduler's
// counters every epoch (§5.4); rotating here also guarantees an application
// whose quota never drains (because it is too stalled to send data requests)
// cannot hold the silver turn indefinitely.
func (s *MASKSched) Epoch() {
	s.advanceSilver()
}

// SilverApp returns the application currently holding the silver turn
// (test/introspection helper).
func (s *MASKSched) SilverApp() int { return s.silverApp }

// Len implements Scheduler.
func (s *MASKSched) Len() int {
	return len(s.golden) + len(s.silver) + len(s.normal)
}

// Pick implements Scheduler: the Golden Queue has strict priority
// (translations are latency-critical, stall many warps, and have low row
// locality — footnote 7); between Silver and Normal, open-row hits are
// served before row misses of either queue so that prioritization does not
// shred row-buffer batches, with Silver winning at equal locality. The
// paper specifies FR-FCFS within each data queue; serving cross-queue row
// hits first is the row-locality-preserving reading of that priority order
// (see DESIGN.md §5).
func (s *MASKSched) Pick(now int64, banks []Bank) *Queued {
	// A golden request normally waits for the pending row-hit run on its
	// bank to drain (hits pipeline at the column-command gap, so the wait
	// is tens of cycles) rather than closing a hot row; a request older
	// than goldenAgeCap is served unconditionally so translations cannot
	// starve behind a continuous hit stream — which is precisely the
	// FR-FCFS pathology MASK exists to fix (§4.3).
	var hitBanks uint64
	if len(s.golden) > 0 {
		for _, q := range s.silver {
			if banks[q.Bank].OpenRow == q.Row {
				hitBanks |= 1 << uint(q.Bank&63)
			}
		}
		for _, q := range s.normal {
			if banks[q.Bank].OpenRow == q.Row {
				hitBanks |= 1 << uint(q.Bank&63)
			}
		}
	}
	for i, q := range s.golden {
		if banks[q.Bank].ReadyAt > now {
			continue
		}
		if hitBanks&(1<<uint(q.Bank&63)) != 0 && now-q.Arrival < goldenAgeCap {
			continue
		}
		copy(s.golden[i:], s.golden[i+1:])
		s.golden = s.golden[:len(s.golden)-1]
		return q
	}
	silverHit, silverOldest := pickFRFCFSSplit(s.silver, now, banks)
	if silverHit >= 0 {
		return s.removeSilver(silverHit)
	}
	normalHit, normalOldest := pickFRFCFSSplit(s.normal, now, banks)
	if normalHit >= 0 {
		return s.removeNormal(normalHit)
	}
	if silverOldest >= 0 {
		return s.removeSilver(silverOldest)
	}
	if normalOldest >= 0 {
		return s.removeNormal(normalOldest)
	}
	return nil
}

// NextReady implements Scheduler: the minimum over the three queues. The
// helper's conservatism covers golden-age deferral: a deferred golden request
// implies its bank is ready, which already pins the horizon to now.
func (s *MASKSched) NextReady(now int64, banks []Bank) int64 {
	h := nextReadySched(s.golden, now, banks)
	if h == now {
		return now
	}
	if g := nextReadySched(s.silver, now, banks); g < h {
		h = g
	}
	if h == now {
		return now
	}
	if g := nextReadySched(s.normal, now, banks); g < h {
		h = g
	}
	return h
}

func (s *MASKSched) removeSilver(idx int) *Queued {
	q := s.silver[idx]
	copy(s.silver[idx:], s.silver[idx+1:])
	s.silver = s.silver[:len(s.silver)-1]
	return q
}

func (s *MASKSched) removeNormal(idx int) *Queued {
	q := s.normal[idx]
	copy(s.normal[idx:], s.normal[idx+1:])
	s.normal = s.normal[:len(s.normal)-1]
	return q
}

// pickFRFCFSSplit returns the oldest row-hit index and the oldest
// bank-ready index (either may be -1).
func pickFRFCFSSplit(queue []*Queued, now int64, banks []Bank) (hit, oldest int) {
	hit, oldest = -1, -1
	for i, q := range queue {
		b := &banks[q.Bank]
		if b.ReadyAt > now {
			continue
		}
		if b.OpenRow == q.Row {
			return i, oldest
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return hit, oldest
}

// QueueLens returns the occupancy of (golden, silver, normal); test helper.
func (s *MASKSched) QueueLens() (int, int, int) {
	return len(s.golden), len(s.silver), len(s.normal)
}

// FCFS is a plain first-come-first-served scheduler with no row-buffer
// awareness, used by the §7.3 memory-scheduler sensitivity study as the
// alternative policy.
type FCFS struct {
	cap   int
	queue []*Queued
}

// NewFCFS returns an FCFS scheduler with the given capacity (0 = unbounded).
func NewFCFS(capacity int) *FCFS { return RenewFCFS(nil, capacity) }

// RenewFCFS is NewFCFS built in place over old when that is an *FCFS (see
// RenewFRFCFS).
func RenewFCFS(old Scheduler, capacity int) *FCFS {
	s, _ := old.(*FCFS)
	s, d := slab.Lift(s)
	*s = FCFS{cap: capacity, queue: renewQueue(d.queue, capacity)}
	return s
}

// Enqueue implements Scheduler.
func (s *FCFS) Enqueue(now int64, q *Queued) bool {
	if s.cap > 0 && len(s.queue) >= s.cap {
		return false
	}
	s.queue = append(s.queue, q)
	return true
}

// Len implements Scheduler.
func (s *FCFS) Len() int { return len(s.queue) }

// NextReady implements Scheduler.
func (s *FCFS) NextReady(now int64, banks []Bank) int64 {
	return nextReadySched(s.queue, now, banks)
}

// Pick implements Scheduler: the oldest request whose bank is ready.
func (s *FCFS) Pick(now int64, banks []Bank) *Queued {
	for i, q := range s.queue {
		if banks[q.Bank].ReadyAt <= now {
			copy(s.queue[i:], s.queue[i+1:])
			s.queue = s.queue[:len(s.queue)-1]
			return q
		}
	}
	return nil
}
