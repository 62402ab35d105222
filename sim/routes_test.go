package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"masksim/internal/cache"
	"masksim/internal/dram"
	"masksim/internal/engine"
	"masksim/internal/gpu"
	"masksim/internal/memreq"
	"masksim/internal/ptw"
	"masksim/internal/snapshot"
)

func decodePayload(t *testing.T, data []byte) checkpointPayload {
	t.Helper()
	_, payload, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var p checkpointPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

// requestImages lists every request image a payload holds, wherever it is
// held, in a fixed order; tests edit them through the pointers.
func requestImages(p *checkpointPayload) []*memreq.Request {
	var out []*memreq.Request
	add := func(sts []memreq.Request) {
		for i := range sts {
			out = append(out, &sts[i])
		}
	}
	addQueued := func(q []engine.QueueItem[memreq.Request]) {
		for i := range q {
			out = append(out, &q[i].Value)
		}
	}
	for i := range p.Cores {
		addQueued(p.Cores[i].Retry)
	}
	caches := []*cache.CacheState{&p.L2C}
	if p.PWC != nil {
		caches = append(caches, p.PWC)
	}
	for i := range p.L1Ds {
		caches = append(caches, &p.L1Ds[i])
	}
	for _, c := range caches {
		for _, q := range c.Queues {
			addQueued(q)
		}
		for _, ms := range c.Mshrs {
			add(ms.Waiting)
		}
		for _, ms := range c.BypassMshrs {
			add(ms.Waiting)
		}
		addQueued(c.Retry)
	}
	for i := range p.DRAM.Channels {
		ch := &p.DRAM.Channels[i]
		for _, q := range [][]dram.QueuedState{ch.Inflight, ch.Sched.Golden, ch.Sched.Silver, ch.Sched.Normal} {
			for j := range q {
				out = append(out, &q[j].Req)
			}
		}
	}
	return out
}

// returningTo finds a live request that returns to a sink of type T — sinks
// is the simulator's request pool, whose table numbers the routes — and
// satisfies pick.
func returningTo[T memreq.Sink](p *checkpointPayload, sinks *memreq.Pool, pick func(d *memreq.Request) bool) (*memreq.Request, bool) {
	for _, d := range requestImages(p) {
		if _, ok := sinks.Sink(d.Ret).(T); ok && pick(d) {
			return d, true
		}
	}
	return nil, false
}

// routeKey names a live request by what stays fixed for its whole life: its
// route, its address and its issue cycle.
func routeKey[T memreq.Sink](sinks *memreq.Pool, pick func(d *memreq.Request) bool) func(p *checkpointPayload) (string, bool) {
	return func(p *checkpointPayload) (string, bool) {
		d, ok := returningTo[T](p, sinks, pick)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("request to sink %d (addr %#x, tag %d, issued %d)", d.Ret, d.Addr, d.Tag, d.Issue), true
	}
}

// liveWalk finds an unfinished walk satisfying pick and names it by its
// serial.
func liveWalk(p *checkpointPayload, pick func(ws ptw.Walk) bool) (string, bool) {
	walks := slices.Clone(p.Walker.Active)
	for _, it := range p.Walker.Pending {
		walks = append(walks, it.Value)
	}
	for _, w := range walks {
		if !w.Finished && pick(w) {
			return fmt.Sprintf("walk %d", w.Serial), true
		}
	}
	return "", false
}

// heldWalk finds a finished walk satisfying pick that a page fault is
// holding, and names it by the fault's page: the page turning resident is
// the fault delivering it.
func heldWalk(pick func(h ptw.HeldWalk) bool) func(p *checkpointPayload) (string, bool) {
	return func(p *checkpointPayload) (string, bool) {
		if p.Faults == nil {
			return "", false
		}
		faults := slices.Clone(p.Faults.Inflight)
		for _, it := range p.Faults.Queue {
			faults = append(faults, it.Value)
		}
		for _, f := range faults {
			if slices.ContainsFunc(f.Notify, pick) {
				return fmt.Sprintf("fault (asid %d, vpn %#x)", f.Key.ASID, f.Key.VPN), true
			}
		}
		return "", false
	}
}

// heldTrans lists the keys of the translations p's holders name, one entry
// per holder: L1 TLB retry queues, the shared TLB's pipe, stalled queue and
// miss waiters, unfinished walks and fault-held walks.
func heldTrans(p *checkpointPayload) []memreq.TransKey {
	var keys []memreq.TransKey
	for c, l1 := range p.L1TLBs {
		for _, it := range l1.Pending {
			keys = append(keys, memreq.TransKey{Core: int32(c), VPN: it.Value})
		}
	}
	if l2 := p.L2TLB; l2 != nil {
		for _, q := range [][]engine.QueueItem[memreq.TransKey]{l2.In, l2.Stalled} {
			for _, it := range q {
				keys = append(keys, it.Value)
			}
		}
		for _, reqs := range l2.Mshrs {
			keys = append(keys, reqs...)
		}
	}
	walks := slices.Clone(p.Walker.Active)
	for _, it := range p.Walker.Pending {
		walks = append(walks, it.Value)
	}
	for _, ws := range walks {
		if !ws.Finished && ws.Origin == ptw.OriginTrans {
			keys = append(keys, memreq.TransKey{Core: ws.Core, VPN: ws.VPN})
		}
	}
	if p.Faults != nil {
		faults := slices.Clone(p.Faults.Inflight)
		for _, it := range p.Faults.Queue {
			faults = append(faults, it.Value)
		}
		for _, f := range faults {
			for _, h := range f.Notify {
				if h.Origin == ptw.OriginTrans {
					keys = append(keys, memreq.TransKey{Core: h.Core, VPN: f.Key.VPN})
				}
			}
		}
	}
	return keys
}

// checkPoolsConserved asserts that every request s's pool created and does
// not hold free is held in p, s's image, exactly once: a continuation that
// was dropped instead of completed, or recycled twice, breaks the sum. Every
// live translation is an L1 TLB miss of the image, and the image's holders
// name each exactly once.
func checkPoolsConserved(t *testing.T, s *Simulator, p *checkpointPayload) {
	t.Helper()
	if live, held := s.reqPool.Live(), len(requestImages(p)); live != held {
		t.Errorf("%d requests are live, the image holds %d: one was lost or recycled twice", live, held)
	}
	named := make(map[memreq.TransKey]int)
	for _, k := range heldTrans(p) {
		named[k]++
	}
	misses := 0
	for c, l1 := range p.L1TLBs {
		for _, ms := range l1.Mshrs {
			misses++
			if k := (memreq.TransKey{Core: int32(c), VPN: ms.VPN}); named[k] != 1 {
				t.Errorf("the translation of core %d, vpn %#x has %d holders, want 1", c, ms.VPN, named[k])
			}
		}
	}
	if len(named) != misses {
		t.Errorf("the image's holders name %d translations, its L1 TLBs have %d misses", len(named), misses)
	}
}

// TestContinuationRoutes takes every kind of return route the simulator has
// — each a (component, key) pair a request, walk or fault carries as data —
// finds one in flight at a checkpoint, and lets it complete twice: on the
// simulator that issued it, and on a fresh one restored from the checkpoint
// in between. Both must have delivered it by the end (it is gone from the
// final image), exactly once (the pool accounts for every request, live and
// after restore, and every translation has one holder; a second Complete or
// TransDone panics), and to the same place: the two final images, every
// field of every component, are deeply equal.
func TestContinuationRoutes(t *testing.T) {
	// One budget for every run: the run length is part of the simulation
	// (it scales the adaptation epoch), so a checkpoint only restores into a
	// run of the same length. Cuts are searched in the first half.
	const every, total = 250, 6000
	type route struct {
		name string
		// inFlight names one continuation of this route the image holds.
		inFlight func(p *checkpointPayload) (string, bool)
	}
	anyRequest := func(*memreq.Request) bool { return true }
	mask := prepareScenario(t, MASKConfig(), []string{"3DS", "CONS"}, 0)
	sinks := &mask.reqPool
	toL1D := func(d *memreq.Request) bool { return slices.Contains(mask.l1ds, sinks.Sink(d.Ret).(*cache.Cache)) }
	walkFrom := func(origin ptw.WalkOrigin) func(p *checkpointPayload) (string, bool) {
		return func(p *checkpointPayload) (string, bool) {
			return liveWalk(p, func(w ptw.Walk) bool { return w.Origin == origin })
		}
	}
	scenarios := []struct {
		cfg    func() Config
		names  []string
		routes []route
	}{
		{MASKConfig, []string{"3DS", "CONS"}, []route{
			{"core data read", routeKey[*gpu.Core](sinks, anyRequest)},
			{"L1D fill", routeKey[*cache.Cache](sinks, toL1D)},
			{"L2 bypass fill", routeKey[*cache.Cache](sinks, func(d *memreq.Request) bool { return d.Tag == 1 })},
			{"walk step", routeKey[*ptw.Walker](sinks, anyRequest)},
		}},
		{SharedTLBConfig, []string{"MUM", "GUP"}, []route{{"L2 TLB miss fill", walkFrom(ptw.OriginL2Miss)}}},
		{func() Config {
			c := MASKConfig()
			c.TLBPrefetch = true
			return c
		}, []string{"RED", "BP"}, []route{{"prefetch install", walkFrom(ptw.OriginPrefetch)}}},
		{PWCacheConfig, []string{"3DS", "CONS"}, []route{{"PWCache translation walk", walkFrom(ptw.OriginTrans)}}},
		{func() Config {
			c := SharedTLBConfig()
			c.DemandPaging = true
			c.FaultLatency = 500
			c.FaultConcurrency = 4
			return c
		}, []string{"MUM", "GUP"}, []route{{"fault-held walk", heldWalk(func(ptw.HeldWalk) bool { return true })}}},
		{func() Config {
			c := PWCacheConfig()
			c.DemandPaging = true
			c.FaultLatency = 500
			c.FaultConcurrency = 4
			return c
		}, []string{"3DS", "CONS"}, []route{{"fault-held translation", heldWalk(func(h ptw.HeldWalk) bool {
			return h.Origin == ptw.OriginTrans
		})}}},
	}
	// image checkpoints s and checks what must hold of any image: of a run,
	// of a simulator just restored, of its resumed run.
	image := func(t *testing.T, s *Simulator) checkpointPayload {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		p := decodePayload(t, buf.Bytes())
		checkPoolsConserved(t, s, &p)
		return p
	}
	for _, sc := range scenarios {
		// The uninterrupted run, checkpointing as it goes (which perturbs
		// nothing: TestCheckpointRestoreEquivalence), made once by the first
		// of the scenario's routes to need it.
		cfg := sc.cfg()
		ckCfg := cfg
		ckCfg.CheckpointEvery = every
		ckCfg.CheckpointDir = t.TempDir()
		var (
			once sync.Once
			src  *Simulator
			live *checkpointPayload
		)
		uninterrupted := func(t *testing.T) (*Simulator, checkpointPayload) {
			t.Helper()
			once.Do(func() {
				s := prepareScenario(t, ckCfg, sc.names, 0)
				s.mustRun(t, total)
				p := image(t, s)
				src, live = s, &p
			})
			if live == nil {
				t.Fatal("the uninterrupted run failed in another subtest")
			}
			return src, *live
		}

		for _, rt := range sc.routes {
			t.Run(rt.name, func(t *testing.T) {
				t.Parallel()
				src, live := uninterrupted(t)
				var cut int64
				var cutImage []byte
				var key string
				for c := int64(every); c <= total/2 && cutImage == nil; c += every {
					data, err := os.ReadFile(src.checkpointPath(c))
					if err != nil {
						t.Fatal(err)
					}
					p := decodePayload(t, data)
					if k, ok := rt.inFlight(&p); ok {
						cut, cutImage, key = c, data, k
					}
				}
				if cutImage == nil {
					t.Fatalf("no checkpoint up to cycle %d holds this route in flight", total/2)
				}
				dst := prepareScenario(t, cfg, sc.names, 0)
				if err := dst.RestoreCheckpoint(bytes.NewReader(cutImage)); err != nil {
					t.Fatal(err)
				}
				image(t, dst)
				dst.mustRun(t, total)
				restored := image(t, dst)
				// The key is unique for the continuation's life (issue
				// cycles, serials and resident pages never repeat), so
				// finding another, or none, means this one completed.
				if k, ok := rt.inFlight(&live); ok && k == key {
					t.Fatalf("%s, in flight at cycle %d, is still in flight at cycle %d", key, cut, total)
				}
				if !reflect.DeepEqual(live, restored) {
					t.Fatalf("%s (in flight at cycle %d): the simulator restored in between ends in a different state at cycle %d", key, cut, total)
				}
			})
		}
	}
}
