package tlb

import (
	"fmt"

	"masksim/internal/engine"
	"masksim/internal/memreq"
	"masksim/internal/mshr"
	"masksim/internal/ptw"
	"masksim/internal/slab"
)

// WalkStarter begins a page table walk; the walker queues internally, so
// StartWalk always succeeds. origin says what the walk is for (a demand miss
// or a prediction) and comes back in WalkDone. QueuedWalks exposes the
// backlog so the TLB can apply back-pressure instead of queueing walks
// without bound.
type WalkStarter interface {
	StartWalk(now int64, asid uint8, appID int, vpn uint64, origin ptw.WalkOrigin)
	QueuedWalks() int
}

// walkBacklogLimit is the walker backlog beyond which the shared TLB stalls
// its lookup ports. It models finite TLB MSHRs backing the walker: without
// it, thousands of walks could queue while the paper's hardware would have
// stalled the requesting warps much earlier.
const walkBacklogLimit = 64

// L2Config describes the shared L2 TLB (Table 1: 512 entries, 16-way, 2
// ports, 10-cycle latency).
type L2Config struct {
	Entries    int
	Ways       int
	Ports      int
	Latency    int64
	QueueCap   int
	BypassSize int // MASK TLB bypass cache entries (0 disables)
	NumApps    int
}

// AppTLBStats holds per-application cumulative shared-TLB counters.
type AppTLBStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// AppTLBCounters is one application's counters as the shared TLB keeps them
// and a checkpoint writes them: the cumulative ones and the current epoch's,
// which EpochRoll rolls.
type AppTLBCounters struct {
	AppTLBStats
	EpochAccesses uint64
	EpochMisses   uint64
}

// MissRate returns the cumulative miss rate.
func (s AppTLBStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// L2Entry is one line of the shared TLB's set-associative array. The array
// is plain data: a checkpoint writes it as it is.
type L2Entry struct {
	Key   memreq.PageKey
	Valid bool
	Stamp int64
	// Prefetched marks entries installed by the prefetcher and not yet hit;
	// a demand hit on one counts as a useful prefetch.
	Prefetched bool
}

// pageKeys are the keys of the shared TLB's miss table.
var pageKeys = &mshr.Keys[memreq.PageKey]{
	Hash:    memreq.PageKey.Hash,
	Compare: memreq.PageKey.Compare,
	Name:    func(k memreq.PageKey) string { return fmt.Sprintf("asid %d, vpn %#x", k.ASID, k.VPN) },
}

// L2TLB is the shared, ASID-tagged second-level TLB. Under MASK it also owns
// the TLB bypass cache and consults the TokenPolicy on fills.
type L2TLB struct {
	cfg    L2Config
	sets   int
	lines  []L2Entry
	stamp  int64
	in     engine.Queue[memreq.Trans]
	walker WalkStarter
	// l1s are where translations return, their misses counting their warps.
	l1s *L1TLBs

	// mshrs holds each outstanding miss by page, with the app of the lookup
	// that missed and every merged requester in arrival order.
	mshrs mshr.Table[memreq.PageKey, int, memreq.Trans]
	// stalled holds lookups that missed while the walker backlog was full;
	// they retry (and may meanwhile hit a newly filled entry or merge into a
	// new MSHR) before fresh lookups are served.
	stalled engine.Queue[memreq.Trans]

	tokens *TokenPolicy
	bypass *bypassCache

	// pf, when non-nil, predicts and prefetches translations (ext-prefetch).
	pf         *Prefetcher
	pfMapped   func(asid uint8, vpn uint64) bool
	pfInFlight map[memreq.PageKey]bool

	apps []AppTLBCounters
	// wayMask restricts fills per app (Static partitioning); empty disables.
	wayMask []uint64
}

// NewL2 builds the shared TLB, which returns translations to l1s. tokens may
// be nil (no token mechanism).
func NewL2(cfg L2Config, walker WalkStarter, tokens *TokenPolicy, l1s *L1TLBs) *L2TLB {
	return RenewL2(nil, cfg, walker, tokens, l1s)
}

// RenewL2 is NewL2 built in place over a donor: t is retired and comes back
// as NewL2 would return it, over the donor's buffers where they fit
// (docs/MODEL.md §11). A nil donor allocates everything.
func RenewL2(t *L2TLB, cfg L2Config, walker WalkStarter, tokens *TokenPolicy, l1s *L1TLBs) *L2TLB {
	if cfg.Ways <= 0 || cfg.Entries < cfg.Ways {
		panic("tlb: invalid L2 TLB geometry")
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if t == nil {
		t = new(L2TLB)
	}
	t.Retire()
	t.cfg, t.sets, t.walker, t.tokens, t.l1s = cfg, cfg.Entries/cfg.Ways, walker, tokens, l1s
	t.lines = slab.Slice(t.lines, cfg.Entries)
	t.in = t.in.Renewed(cfg.Latency, cfg.QueueCap)
	t.mshrs = t.mshrs.Renewed(0, pageKeys)
	t.apps = slab.Slice(t.apps, cfg.NumApps)
	if cfg.BypassSize > 0 {
		t.bypass = renewBypassCache(t.bypass, cfg.BypassSize)
	} else {
		t.bypass = nil
	}
	return t
}

// Retire empties t in place: what is left is the zero L2TLB but for the
// capacity of its entry array, input pipe, miss table, stalled queue and
// per-app counters, with nothing in them, and its bypass cache as it was,
// for RenewL2 to renew or let go — no prefetcher, no address space behind
// it, no neighbour (cache.Cache.Retire has the why).
func (t *L2TLB) Retire() {
	d := *t
	*t = L2TLB{
		lines:   slab.Slice(d.lines, 0),
		mshrs:   d.mshrs.Renewed(0, nil),
		in:      d.in.Renewed(0, 0),
		stalled: d.stalled.Renewed(0, 0),
		apps:    slab.Slice(d.apps, 0),
		bypass:  d.bypass,
	}
}

// SetWayPartition restricts each app's fills to a subset of ways (Static).
func (t *L2TLB) SetWayPartition(masks []uint64) { t.wayMask = masks }

// SetPrefetcher enables stride prefetching. mapped reports whether a VPN is
// mapped in the given address space (prefetching an unmapped page would
// fault).
func (t *L2TLB) SetPrefetcher(p *Prefetcher, mapped func(asid uint8, vpn uint64) bool) {
	t.pf = p
	t.pfMapped = mapped
	t.pfInFlight = make(map[memreq.PageKey]bool)
}

// maybePrefetch issues a prediction-driven walk when the walker is idle.
func (t *L2TLB) maybePrefetch(now int64, asid uint8, appID int, vpn uint64) {
	if t.pf == nil {
		return
	}
	next, ok := t.pf.Observe(asid, vpn)
	if !ok || !t.pfMapped(asid, next) {
		return
	}
	key := memreq.PageKey{ASID: asid, VPN: next}
	if t.pfInFlight[key] {
		return
	}
	if t.probe(key) {
		return
	}
	if _, miss := t.mshrs.Find(key); miss {
		return
	}
	if t.walker.QueuedWalks() > 0 {
		return // never delay demand walks
	}
	t.pf.Stats.Issued++
	t.pfInFlight[key] = true
	t.walker.StartWalk(now, asid, appID, next, ptw.OriginPrefetch)
}

// WalkDone implements ptw.WalkSink: a walk this TLB started has translated
// (asid, vpn). A prefetch walk installs the translation; a demand walk fills
// the miss tracker of its key.
func (t *L2TLB) WalkDone(now int64, asid uint8, appID int, vpn uint64, origin ptw.WalkOrigin) {
	key := memreq.PageKey{ASID: asid, VPN: vpn}
	if origin == ptw.OriginPrefetch {
		delete(t.pfInFlight, key)
		t.install(key, appID)
		t.markPrefetched(key)
		return
	}
	if e, ok := t.mshrs.Find(key); ok { // no miss: nothing waits on this walk
		t.fill(now, e)
	}
}

// Awaits implements ptw.WalkSink: whether a miss waits for the demand walk
// of (asid, vpn).
func (t *L2TLB) Awaits(asid uint8, vpn uint64) bool {
	_, ok := t.mshrs.Find(memreq.PageKey{ASID: asid, VPN: vpn})
	return ok
}

func (t *L2TLB) markPrefetched(key memreq.PageKey) {
	base := t.setOf(key) * t.cfg.Ways
	for w := 0; w < t.cfg.Ways; w++ {
		e := &t.lines[base+w]
		if e.Valid && e.Key == key {
			e.Prefetched = true
			return
		}
	}
}

// SubmitTrans implements TransBackend for the L1 TLBs.
func (t *L2TLB) SubmitTrans(now int64, tr memreq.Trans) bool {
	return t.in.Push(now, tr)
}

// Tick services up to Ports lookups whose access latency has elapsed.
// Lookups that missed while the walker backlog was full retry first; the
// backlog bound models finite TLB MSHR/walker queue capacity, so warps
// behind a full walker wait at the TLB rather than growing an unbounded
// hardware queue.
func (t *L2TLB) Tick(now int64) {
	for t.stalled.Len() > 0 && t.walker.QueuedWalks() < walkBacklogLimit {
		tr, ok := t.stalled.Pop(now)
		if !ok {
			break
		}
		t.lookup(now, tr, false)
	}
	for i := 0; i < t.cfg.Ports; i++ {
		tr, ok := t.in.Pop(now)
		if !ok {
			return
		}
		t.lookup(now, tr, true)
	}
}

// NextEvent implements engine.EventSource. Stalled lookups (ready at once)
// force a tick at now only while the walker backlog has room: with the
// backlog full, Tick's drain loop is a no-op, and the backlog can only drain
// through a walker tick — the walker's (or its memory backend's) own horizon
// pins that cycle, after which this horizon recomputes. Otherwise the horizon
// is the input queue's head arrival; fills arrive through WalkDone and need no
// wakeup.
func (t *L2TLB) NextEvent(now int64) int64 {
	if t.stalled.Len() > 0 && t.walker.QueuedWalks() < walkBacklogLimit {
		return now
	}
	return t.in.NextReady(now)
}

// lookup resolves one translation request. Stats are recorded at resolution:
// Accesses on first probe, Hits/Misses when the request hits, merges, or
// starts a walk.
func (t *L2TLB) lookup(now int64, tr memreq.Trans, first bool) {
	app := tr.AppID
	if first && app >= 0 && app < len(t.apps) {
		t.apps[app].Accesses++
		t.apps[app].EpochAccesses++
	}
	key := memreq.PageKey{ASID: tr.ASID, VPN: tr.VPN}
	if first {
		// The prefetcher observes the demand reference stream (hits and
		// misses alike); observing only misses would break its own stride
		// chain every time a prefetch becomes useful.
		t.maybePrefetch(now, key.ASID, app, key.VPN)
	}

	// Probe the main TLB and the bypass cache in parallel (§5.2: "a hit in
	// either the TLB or the TLB bypass cache yields a TLB hit").
	if t.probe(key) || (t.bypass != nil && t.bypass.probe(key)) {
		t.recordHit(app)
		t.l1s.TransDone(now, tr.Key())
		return
	}

	if e, ok := t.mshrs.Find(key); ok {
		t.recordMiss(app)
		t.mshrs.Add(e, tr)
		return
	}
	if t.walker.QueuedWalks() >= walkBacklogLimit {
		// No walk slot: park the request; it retries next tick.
		t.stalled.Push(now, tr)
		return
	}
	t.recordMiss(app)
	t.mshrs.Add(t.mshrs.Open(key, app), tr)
	t.walker.StartWalk(now, key.ASID, app, key.VPN, ptw.OriginL2Miss)
}

func (t *L2TLB) recordMiss(app int) {
	if app >= 0 && app < len(t.apps) {
		t.apps[app].Misses++
		t.apps[app].EpochMisses++
	}
}

func (t *L2TLB) recordHit(app int) {
	if app >= 0 && app < len(t.apps) {
		t.apps[app].Hits++
	}
}

func (t *L2TLB) probe(key memreq.PageKey) bool {
	base := t.setOf(key) * t.cfg.Ways
	for w := 0; w < t.cfg.Ways; w++ {
		e := &t.lines[base+w]
		if e.Valid && e.Key == key {
			t.stamp++
			e.Stamp = t.stamp
			if e.Prefetched {
				e.Prefetched = false
				if t.pf != nil {
					t.pf.Stats.Useful++
				}
			}
			return true
		}
	}
	return false
}

func (t *L2TLB) setOf(key memreq.PageKey) int {
	// Hash the VPN (and mix in the ASID) rather than indexing with its low
	// bits: GPGPU heaps allocate large-stride regions whose VPNs share low
	// bits, and a modulo index would collapse them onto a handful of sets.
	return int((key.Hash() >> 32) % uint64(t.sets))
}

// fill completes miss e: install the translation (subject to TLB-Fill
// Tokens), then wake every merged requester.
func (t *L2TLB) fill(now int64, e int) {
	key := t.mshrs.Key(e)
	// The fill may enter the main TLB if any merged requester held a token;
	// otherwise it is buffered only in the bypass cache (§5.2).
	hasToken := t.tokens == nil || !t.tokens.Enabled()
	for ws := t.mshrs.Waiters(e); !hasToken; {
		tr, ok := t.mshrs.Next(&ws)
		if !ok {
			break
		}
		hasToken = tr.HasToken
	}
	app, ws := t.mshrs.Close(e)
	if hasToken {
		t.install(key, app)
	} else if t.bypass != nil {
		t.bypass.fill(key)
	}
	for tr, ok := t.mshrs.Pop(&ws); ok; tr, ok = t.mshrs.Pop(&ws) {
		t.l1s.TransDone(now, tr.Key())
	}
}

func (t *L2TLB) install(key memreq.PageKey, appID int) {
	base := t.setOf(key) * t.cfg.Ways
	victim := -1
	var victimStamp int64 = 1<<63 - 1
	var mask uint64 = ^uint64(0)
	if len(t.wayMask) > 0 && appID >= 0 && appID < len(t.wayMask) {
		mask = t.wayMask[appID]
	}
	for w := 0; w < t.cfg.Ways; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		e := &t.lines[base+w]
		if !e.Valid {
			victim = w
			break
		}
		if e.Stamp < victimStamp {
			victimStamp = e.Stamp
			victim = w
		}
	}
	if victim < 0 {
		victim = 0
	}
	t.stamp++
	t.lines[base+victim] = L2Entry{Key: key, Valid: true, Stamp: t.stamp}
}

// PrefetchStats returns the prefetcher counters (zero when disabled).
func (t *L2TLB) PrefetchStats() PrefetchStats {
	if t.pf == nil {
		return PrefetchStats{}
	}
	return t.pf.Stats
}

// EpochRoll returns each app's shared-TLB miss rate over the epoch that just
// ended and starts a new epoch. The simulator feeds the result to
// TokenPolicy.Epoch.
func (t *L2TLB) EpochRoll() []float64 {
	rates := make([]float64, len(t.apps))
	for i := range t.apps {
		if t.apps[i].EpochAccesses > 0 {
			rates[i] = float64(t.apps[i].EpochMisses) / float64(t.apps[i].EpochAccesses)
		}
		t.apps[i].EpochAccesses = 0
		t.apps[i].EpochMisses = 0
	}
	return rates
}

// Pressure implements the per-app metrics for the MASK DRAM scheduler
// (§5.4): the number of concurrent page walks and the average number of
// warps stalled per active miss, each requester's warps counted at its L1
// TLB miss. Both counters saturate at 63, matching the paper's 6-bit
// hardware counters; saturation also keeps the Silver-Queue quota split
// stable when both apps are far beyond the measurable range.
func (t *L2TLB) Pressure(app int) (conPTW, warpsStalled float64) {
	n := 0
	stalled := 0
	for e := range t.mshrs.Len() {
		if t.mshrs.Payload(e) != app {
			continue
		}
		n++
		for ws := t.mshrs.Waiters(e); ; {
			tr, ok := t.mshrs.Next(&ws)
			if !ok {
				break
			}
			l1 := (*t.l1s)[tr.Core]
			m, _ := l1.mshrs.Find(tr.VPN)
			stalled += l1.mshrs.Count(m)
		}
	}
	if n == 0 {
		return 0, 0
	}
	avg := float64(stalled) / float64(n)
	if n > 63 {
		n = 63
	}
	if avg > 63 {
		avg = 63
	}
	return float64(n), avg
}

// AppStats returns app's cumulative counters.
func (t *L2TLB) AppStats(app int) AppTLBStats {
	if app < 0 || app >= len(t.apps) {
		return AppTLBStats{}
	}
	return t.apps[app].AppTLBStats
}

// TotalStats sums counters across apps.
func (t *L2TLB) TotalStats() AppTLBStats {
	var total AppTLBStats
	for _, s := range t.apps {
		total.Accesses += s.Accesses
		total.Hits += s.Hits
		total.Misses += s.Misses
	}
	return total
}

// BypassHitRate returns the TLB bypass cache hit rate (0 when disabled).
func (t *L2TLB) BypassHitRate() float64 {
	if t.bypass == nil {
		return 0
	}
	return t.bypass.hitRate()
}

// OutstandingMisses returns the number of active L2 TLB MSHRs.
func (t *L2TLB) OutstandingMisses() int { return t.mshrs.Len() }

// QueueLen returns the number of lookups waiting to be served (input pipe
// plus stalled retries); the watchdog's diagnostic dump reports it.
func (t *L2TLB) QueueLen() int { return t.in.Len() + t.stalled.Len() }

// FlushFraction invalidates roughly the given fraction of entries
// (deterministically), modelling partial eviction across a context switch.
func (t *L2TLB) FlushFraction(fraction float64) {
	if fraction <= 0 {
		return
	}
	stride := 1
	if fraction < 1 {
		stride = int(1 / fraction)
		if stride < 1 {
			stride = 1
		}
	}
	for i := range t.lines {
		if i%stride == 0 {
			t.lines[i].Valid = false
		}
	}
}
