package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"masksim/internal/cache"
	"masksim/internal/dram"
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
func requestImages(p *checkpointPayload) []*memreq.RequestState {
	var out []*memreq.RequestState
	add := func(sts []memreq.RequestState) {
		for i := range sts {
			out = append(out, &sts[i])
		}
	}
	for i := range p.Cores {
		add(p.Cores[i].Retry)
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
			for i := range q {
				out = append(out, &q[i].Req)
			}
		}
		for _, ms := range c.Mshrs {
			add(ms.Waiting)
		}
		for _, ms := range c.BypassMshrs {
			add(ms.Waiting)
		}
		add(c.Retry)
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
// is the simulator's wiring — and satisfies pick.
func returningTo[T memreq.Sink](p *checkpointPayload, sinks []memreq.Sink, pick func(d *memreq.RequestState) bool) (*memreq.RequestState, bool) {
	for _, d := range requestImages(p) {
		if d.Sink == 0 {
			continue
		}
		if _, ok := sinks[d.Sink-1].(T); ok && pick(d) {
			return d, true
		}
	}
	return nil, false
}

// routeKey names a live request by what stays fixed for its whole life: its
// route, its address and its issue cycle.
func routeKey[T memreq.Sink](sinks []memreq.Sink, pick func(d *memreq.RequestState) bool) func(p *checkpointPayload) (string, bool) {
	return func(p *checkpointPayload) (string, bool) {
		d, ok := returningTo[T](p, sinks, pick)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("request to ticker %d (addr %#x, tag %d, issued %d)", d.Sink-1, d.Addr, d.Tag, d.Issue), true
	}
}

// liveWalk finds an unfinished walk satisfying pick and names it by its
// serial.
func liveWalk(p *checkpointPayload, pick func(ws ptw.WalkState) bool) (string, bool) {
	for _, w := range append(p.Walker.Active, p.Walker.Pending...) {
		if !w.Finished && pick(w) {
			return fmt.Sprintf("walk %d", w.Serial), true
		}
	}
	return "", false
}

// heldWalk finds a finished walk a page fault is holding and names it by the
// fault's page: the page turning resident is the fault delivering it.
func heldWalk(p *checkpointPayload) (string, bool) {
	if p.Faults == nil {
		return "", false
	}
	for _, f := range append(p.Faults.Inflight, p.Faults.Queue...) {
		if len(f.Notify) > 0 {
			return fmt.Sprintf("fault (asid %d, vpn %#x)", f.ASID, f.VPN), true
		}
	}
	return "", false
}

// checkPoolsConserved asserts that every request s's pool created and does
// not hold free is held in p, s's image, exactly once: a continuation that
// was dropped instead of completed, or recycled twice, breaks the sum. Every
// live translation is held by the L1 TLB miss tracker of its core.
func checkPoolsConserved(t *testing.T, s *Simulator, p *checkpointPayload) {
	t.Helper()
	if live, held := s.reqPool.Live(), len(requestImages(p)); live != held {
		t.Errorf("%d requests are live, the image holds %d: one was lost or recycled twice", live, held)
	}
	held := 0
	for _, l1 := range p.L1TLBs {
		held += len(l1.Mshrs)
	}
	if live := s.transPool.Live(); live != held {
		t.Errorf("%d translations are live, the image holds %d", live, held)
	}
}

// TestContinuationRoutes takes every kind of return route the simulator has
// — each a (component, key) pair a request, walk or fault carries as data —
// finds one in flight at a checkpoint, and lets it complete twice: on the
// simulator that issued it, and on a fresh one restored from the checkpoint
// in between. Both must have delivered it by the end (it is gone from the
// final image), exactly once (the pool accounts for every request, live and
// after restore; a second Complete panics), and to the same place: the two
// final images, every field of every component, are deeply equal.
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
	anyRequest := func(*memreq.RequestState) bool { return true }
	mask := prepareScenario(t, MASKConfig(), []string{"3DS", "CONS"}, 0)
	sinks := mask.wiring().Sinks
	toL1D := func(d *memreq.RequestState) bool { return slices.Contains(mask.l1ds, sinks[d.Sink-1].(*cache.Cache)) }
	walkFrom := func(origin ptw.WalkOrigin) func(p *checkpointPayload) (string, bool) {
		return func(p *checkpointPayload) (string, bool) {
			return liveWalk(p, func(w ptw.WalkState) bool { return ptw.WalkOrigin(w.Origin) == origin })
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
			{"L2 bypass fill", routeKey[*cache.Cache](sinks, func(d *memreq.RequestState) bool { return d.Tag == 1 })},
			{"walk step", routeKey[*ptw.Walker](sinks, anyRequest)},
		}},
		{SharedTLBConfig, []string{"MUM", "GUP"}, []route{{"L2 TLB miss fill", walkFrom(ptw.OriginL2Miss)}}},
		{func() Config {
			c := MASKConfig()
			c.TLBPrefetch = true
			return c
		}, []string{"RED", "BP"}, []route{{"prefetch install", walkFrom(ptw.OriginPrefetch)}}},
		{PWCacheConfig, []string{"3DS", "CONS"}, []route{{"PWCache TransReq walk", walkFrom(ptw.OriginTrans)}}},
		{func() Config {
			c := SharedTLBConfig()
			c.DemandPaging = true
			c.FaultLatency = 500
			c.FaultConcurrency = 4
			return c
		}, []string{"MUM", "GUP"}, []route{{"fault-held walk", heldWalk}}},
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
		// nothing: TestCheckpointRestoreEquivalence).
		cfg := sc.cfg()
		ckCfg := cfg
		ckCfg.CheckpointEvery = every
		ckCfg.CheckpointDir = t.TempDir()
		src := prepareScenario(t, ckCfg, sc.names, 0)
		src.mustRun(t, total)
		live := image(t, src)

		for _, rt := range sc.routes {
			t.Run(rt.name, func(t *testing.T) {
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
