package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"testing"

	"masksim/internal/cache"
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

// returningTo finds a live request that returns to a component whose state
// is a T and satisfies pick, and names it by what stays fixed for its whole
// life: its ID, its pool and its route.
func returningTo[T any](p *checkpointPayload, pick func(d memreq.RequestDTO) bool) (string, bool) {
	for _, d := range p.Reqs {
		if _, ok := p.States[int(d.Sink)].(T); ok && pick(d) {
			return fmt.Sprintf("request %d of pool %d to ticker %d tag %d", d.ID, d.PoolID, d.Sink, d.Tag), true
		}
	}
	return "", false
}

// liveWalk finds an unfinished walk satisfying pick and names it by its
// serial.
func liveWalk(p *checkpointPayload, pick func(ws ptw.WalkState) bool) (string, bool) {
	for _, st := range p.States {
		ws, ok := st.(ptw.WalkerState)
		if !ok {
			continue
		}
		for _, w := range append(ws.Active, ws.Pending...) {
			if !w.Finished && pick(w) {
				return fmt.Sprintf("walk %d", w.Serial), true
			}
		}
	}
	return "", false
}

// heldWalk finds a finished walk a page fault is holding and names it by the
// fault's page: the page turning resident is the fault delivering it.
func heldWalk(p *checkpointPayload) (string, bool) {
	for _, st := range p.States {
		fs, ok := st.(ptw.FaultUnitState)
		if !ok {
			continue
		}
		for _, f := range append(fs.Inflight, fs.Queue...) {
			if len(f.Notify) > 0 {
				return fmt.Sprintf("fault (asid %d, vpn %#x)", f.ASID, f.VPN), true
			}
		}
	}
	return "", false
}

// checkPoolsConserved asserts that every pooled request a pool ever created
// is either on its free list or in the registry exactly once: a continuation
// that was dropped instead of completed, or recycled twice, breaks the sum.
func checkPoolsConserved(t *testing.T, p *checkpointPayload) {
	t.Helper()
	live := make([]uint64, len(p.ReqPools))
	for _, d := range p.Reqs {
		live[d.PoolID]++
	}
	for id, st := range p.ReqPools {
		if st.Allocs-uint64(st.Free) != live[id] {
			t.Errorf("request pool %d created %d, holds %d free, %d are live: one was lost or recycled twice", id, st.Allocs, st.Free, live[id])
		}
	}
	liveTr := make([]uint64, len(p.TransPools))
	for _, d := range p.Trans {
		liveTr[d.PoolID]++
	}
	for id, st := range p.TransPools {
		if st.Allocs-uint64(st.Free) != liveTr[id] {
			t.Errorf("translation pool %d created %d, holds %d free, %d are live", id, st.Allocs, st.Free, liveTr[id])
		}
	}
}

// TestContinuationRoutes takes every kind of return route the simulator has
// — each a (component, key) pair a request, walk or fault carries as data —
// finds one in flight at a checkpoint, and lets it complete twice: on the
// simulator that issued it, and on a fresh one restored from the checkpoint
// in between. Both must have delivered it by the end (it is gone from the
// final image), exactly once (the pools account for every request; a second
// Complete panics), and to the same place: the two final images, every field
// of every component, are deeply equal.
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
	anyRequest := func(memreq.RequestDTO) bool { return true }
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
			{"core data read", func(p *checkpointPayload) (string, bool) {
				return returningTo[gpu.CoreState](p, anyRequest)
			}},
			{"L1D fill", func(p *checkpointPayload) (string, bool) {
				return returningTo[cache.CacheState](p, func(d memreq.RequestDTO) bool { return d.PoolID > 0 })
			}},
			{"L2 bypass fill", func(p *checkpointPayload) (string, bool) {
				return returningTo[cache.CacheState](p, func(d memreq.RequestDTO) bool { return d.Tag == 1 })
			}},
			{"walk step", func(p *checkpointPayload) (string, bool) {
				return returningTo[ptw.WalkerState](p, anyRequest)
			}},
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
	// finalImage checkpoints a finished run and checks what must hold of any
	// final image.
	finalImage := func(t *testing.T, s *Simulator) checkpointPayload {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		p := decodePayload(t, buf.Bytes())
		checkPoolsConserved(t, &p)
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
		live := finalImage(t, src)

		for _, rt := range sc.routes {
			t.Run(rt.name, func(t *testing.T) {
				var cut int64
				var image []byte
				var key string
				for c := int64(every); c <= total/2 && image == nil; c += every {
					data, err := os.ReadFile(src.checkpointPath(c))
					if err != nil {
						t.Fatal(err)
					}
					p := decodePayload(t, data)
					if k, ok := rt.inFlight(&p); ok {
						cut, image, key = c, data, k
					}
				}
				if image == nil {
					t.Fatalf("no checkpoint up to cycle %d holds this route in flight", total/2)
				}
				dst := prepareScenario(t, cfg, sc.names, 0)
				if err := dst.RestoreCheckpoint(bytes.NewReader(image)); err != nil {
					t.Fatal(err)
				}
				dst.mustRun(t, total)
				restored := finalImage(t, dst)
				// The key is unique for the continuation's life (IDs, serials
				// and resident pages never repeat), so finding another, or
				// none, means this one completed.
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
