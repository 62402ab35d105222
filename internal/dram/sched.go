package dram

import (
	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/slab"
)

// Policy names a channel scheduling policy.
type Policy uint8

const (
	// FRFCFS is the baseline First-Ready, First-Come-First-Served policy
	// (Rixner et al. / Zuravleff & Robinson): among requests whose bank is
	// ready, prefer a row-buffer hit; otherwise take the oldest. GPGPU data
	// streams have high row locality, which is exactly why FR-FCFS
	// de-prioritises the low-locality translation requests (§4.3, Figure 9).
	FRFCFS Policy = iota
	// FCFS serves the oldest request whose bank is ready, with no row-buffer
	// awareness: the alternative policy of the §7.3 memory-scheduler
	// sensitivity study.
	FCFS
	// MASK is the Address-Space-Aware scheduler (§5.4): a Golden and a Silver
	// queue in front of FR-FCFS's Normal queue.
	MASK
)

// String returns the policy's name as the paper writes it.
func (p Policy) String() string {
	return [...]string{FRFCFS: "FR-FCFS", FCFS: "FCFS", MASK: "MASK"}[p]
}

// PressureFunc reports, for an application, the two per-app metrics the
// Address-Space-Aware scheduler's Silver-Queue quota uses (§5.4 Eq. 1):
// the number of concurrent page walks and the number of warps stalled per
// active TLB miss. The TLB subsystem provides the implementation.
type PressureFunc func(app int) (concurrentPTW, warpsStalled float64)

// SchedConfig selects every channel's scheduling policy. Apps is the number
// of applications, whose AppIDs index the per-app bus counters (fewer than
// one counts as one). Apps, ThreshMax and Pressure parameterise MASK's Silver
// Queue: the applications taking silver turns, Equation 1's thresh_max
// (non-positive disables the Silver Queue — Golden Queue only), and the
// pressure metrics (nil splits the quota evenly).
type SchedConfig struct {
	Policy    Policy
	Apps      int
	ThreshMax int
	Pressure  PressureFunc
}

// maskCaps are MASK's queue capacities (§7.4): 16-entry Golden, 64-entry
// Silver, 192-entry Normal.
var maskCaps = [3]int{QGolden: 16, QSilver: 64, QNormal: 192}

// goldenAgeCap bounds how long a golden request defers to row-hit runs.
const goldenAgeCap = 400

// sched is one channel's request buffer: three arrival-order queues indexed
// by QueueClass. FR-FCFS and FCFS use only the Normal queue, bounded by
// Config.QueueCap. MASK splits the buffer three ways:
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
type sched struct {
	SchedConfig
	caps [3]int // 0 = unbounded
	q    [3][]*Queued

	turn SilverTurn
}

// SilverTurn is the application holding MASK's silver turn and the requests
// its turn still admits: plain data, which a checkpoint writes as it is.
type SilverTurn struct {
	SilverApp   int
	SilverQuota int
}

// renew makes s an empty scheduler for cfg over its queues' arrays
// (docs/MODEL.md §11); queueCap bounds the Normal queue of FR-FCFS and FCFS.
func (s *sched) renew(cfg SchedConfig, queueCap int) {
	if cfg.Apps < 1 {
		cfg.Apps = 1
	}
	q := s.q
	*s = sched{SchedConfig: cfg}
	s.caps[QNormal] = queueCap
	if cfg.Policy == MASK {
		s.caps, s.turn.SilverQuota = maskCaps, s.quotaFor(0)
	}
	for c := range s.q {
		s.q[c] = renewQueue(q[c], s.caps[c])
	}
}

// retired returns s emptied down to its queues' arrays, which keep their
// capacity and hold nothing; renew takes it from there.
func (s *sched) retired() sched {
	var r sched
	for c := range s.q {
		r.q[c] = renewQueue(s.q[c], s.caps[c])
	}
	return r
}

// renewQueue returns an empty request queue with room for capacity entries
// (a bounded queue never grows past it; 0 = unbounded, grown on demand), over
// the donor's array when that fits.
func renewQueue(old []*Queued, capacity int) []*Queued {
	if capacity == 0 {
		return slab.Grown(old)
	}
	return slab.Slice(old, capacity)[:0]
}

// quotaFor evaluates Equation 1 for app i. A non-positive ThreshMax disables
// the Silver Queue entirely (ablation knob: Golden Queue only).
func (s *sched) quotaFor(app int) int {
	if s.ThreshMax <= 0 {
		return 0
	}
	if s.Pressure == nil || s.Apps == 1 {
		return s.ThreshMax / s.Apps
	}
	var sum, mine float64
	for j := 0; j < s.Apps; j++ {
		c, w := s.Pressure(j)
		p := c * w
		sum += p
		if j == app {
			mine = p
		}
	}
	if sum <= 0 {
		return s.ThreshMax / s.Apps
	}
	q := int(float64(s.ThreshMax) * mine / sum)
	if q < 1 {
		q = 1
	}
	return q
}

// push appends q to class queue c unless that is full.
func (s *sched) push(c QueueClass, q *Queued) bool {
	if s.caps[c] > 0 && len(s.q[c]) >= s.caps[c] {
		return false
	}
	s.q[c] = append(s.q[c], q)
	return true
}

// enqueue admits q or refuses it (queue full). Under MASK, translation
// requests enter the Golden Queue (falling back to Silver, then Normal, if
// full), and data requests from the silver-turn application enter the Silver
// Queue while its quota lasts.
func (s *sched) enqueue(q *Queued) bool {
	if s.Policy != MASK {
		return s.push(QNormal, q)
	}
	if q.Req.Class == memreq.Translation {
		return s.push(QGolden, q) || s.push(QSilver, q) || s.push(QNormal, q)
	}
	if q.Req.AppID == s.turn.SilverApp && s.turn.SilverQuota > 0 && s.push(QSilver, q) {
		s.turn.SilverQuota--
		if s.turn.SilverQuota == 0 {
			s.advanceSilver()
		}
		return true
	}
	return s.push(QNormal, q)
}

func (s *sched) advanceSilver() {
	s.turn.SilverApp = (s.turn.SilverApp + 1) % s.Apps
	s.turn.SilverQuota = s.quotaFor(s.turn.SilverApp)
}

// epoch forces a silver-turn rotation under MASK. The paper resets the
// scheduler's counters every epoch (§5.4); rotating here also guarantees an
// application whose quota never drains (because it is too stalled to send
// data requests) cannot hold the silver turn indefinitely.
func (s *sched) epoch() {
	if s.Policy == MASK {
		s.advanceSilver()
	}
}

// len returns the number of queued requests.
func (s *sched) len() int {
	return len(s.q[QGolden]) + len(s.q[QSilver]) + len(s.q[QNormal])
}

// take removes and returns the i-th request of class queue c, nil for i < 0.
func (s *sched) take(c QueueClass, i int) *Queued {
	if i < 0 {
		return nil
	}
	q := s.q[c][i]
	s.q[c] = append(s.q[c][:i], s.q[c][i+1:]...)
	return q
}

// pick removes and returns the request to issue at now, one whose bank is
// ready, or nil.
//
// FR-FCFS is MASK on the Normal queue alone. MASK's Golden Queue has strict
// priority (translations are latency-critical, stall many warps, and have
// low row locality — footnote 7); between Silver and Normal, open-row hits
// are served before row misses of either queue so that prioritization does
// not shred row-buffer batches, with Silver winning at equal locality. The
// paper specifies FR-FCFS within each data queue; serving cross-queue row
// hits first is the row-locality-preserving reading of that priority order
// (see DESIGN.md §5).
func (s *sched) pick(now int64, banks []Bank) *Queued {
	if s.Policy == FCFS {
		hit, oldest := pickFRFCFS(s.q[QNormal], now, banks)
		if oldest < 0 {
			oldest = hit // no ready request precedes the first row hit
		}
		return s.take(QNormal, oldest)
	}
	if i := s.pickGolden(now, banks); i >= 0 {
		return s.take(QGolden, i)
	}
	silverHit, silverOldest := pickFRFCFS(s.q[QSilver], now, banks)
	if silverHit >= 0 {
		return s.take(QSilver, silverHit)
	}
	normalHit, normalOldest := pickFRFCFS(s.q[QNormal], now, banks)
	switch {
	case normalHit >= 0:
		return s.take(QNormal, normalHit)
	case silverOldest >= 0:
		return s.take(QSilver, silverOldest)
	}
	return s.take(QNormal, normalOldest)
}

// pickGolden returns the index of the oldest golden request to serve at now,
// or -1. A golden request normally waits for the pending row-hit run on its
// bank to drain (hits pipeline at the column-command gap, so the wait is tens
// of cycles) rather than closing a hot row; a request older than
// goldenAgeCap is served unconditionally so translations cannot starve
// behind a continuous hit stream — which is precisely the FR-FCFS pathology
// MASK exists to fix (§4.3).
func (s *sched) pickGolden(now int64, banks []Bank) int {
	if len(s.q[QGolden]) == 0 {
		return -1
	}
	var hitBanks uint64
	for _, queue := range s.q[QSilver:] {
		for _, q := range queue {
			if banks[q.Bank].OpenRow == q.Row {
				hitBanks |= 1 << uint(q.Bank&63)
			}
		}
	}
	for i, q := range s.q[QGolden] {
		if banks[q.Bank].ReadyAt > now {
			continue
		}
		if hitBanks&(1<<uint(q.Bank&63)) != 0 && now-q.Arrival < goldenAgeCap {
			continue
		}
		return i
	}
	return -1
}

// pickFRFCFS returns the index of the oldest row hit and of the oldest
// bank-ready request in queue (either may be -1). Queues are kept in arrival
// order, so the scan stops at the first row hit; oldest is then -1 when that
// hit is also the oldest ready request.
func pickFRFCFS(queue []*Queued, now int64, banks []Bank) (hit, oldest int) {
	oldest = -1
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
	return -1, oldest
}

// nextReady returns the earliest cycle >= now at which pick could return a
// request: now if some queued request's bank is ready, the minimum bank
// ReadyAt otherwise, engine.NoEvent for an empty buffer. Early but never late,
// it lets the engine fast-forward over spans in which the channel stays idle.
// MASK's golden-age deferral declines a ready bank, but it resolves through a
// row-hit service or aging, both of which need ticking — and a ready bank
// forces "now" here, so those cycles are never skipped.
func (s *sched) nextReady(now int64, banks []Bank) int64 {
	h := engine.NoEvent
	for _, queue := range s.q {
		for _, q := range queue {
			if r := banks[q.Bank].ReadyAt; r <= now {
				return now
			} else if r < h {
				h = r
			}
		}
	}
	return h
}
