package ptw

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"

	"masksim/internal/memreq"
	"masksim/internal/pagetable"
)

// page names page vpn of address space 1.
func page(vpn uint64) memreq.PageKey { return memreq.PageKey{ASID: 1, VPN: vpn} }

// newFaultUnit builds a fault unit whose held walks land in the returned log.
func newFaultUnit(latency int64, concurrency int) (*FaultUnit, *walkLog) {
	f, log := NewFaultUnit(latency, concurrency), &walkLog{}
	f.sink = log
	return f, log
}

func TestFaultFirstTouchPaysLatency(t *testing.T) {
	f, log := newFaultUnit(100, 4)
	if f.Touch(0, page(42), HeldWalk{Origin: OriginL2Miss}) {
		t.Fatal("first touch reported resident")
	}
	for now := int64(1); now < 99; now++ {
		f.Tick(now)
		if len(log.done) > 0 {
			t.Fatalf("fault completed early at %d", log.done[0].now)
		}
	}
	f.Tick(100)
	if len(log.done) != 1 || log.done[0] != (walkResult{now: 100, vpn: 42, origin: OriginL2Miss}) {
		t.Fatalf("fault delivered %+v, want the held walk once at 100", log.done)
	}
	// Page now resident: no further fault.
	if !f.Touch(101, page(42), HeldWalk{}) {
		t.Fatal("resident page faulted again")
	}
	if f.Stats.Faults != 1 {
		t.Fatalf("fault count %d, want 1", f.Stats.Faults)
	}
}

func TestFaultMergesSamePage(t *testing.T) {
	f, log := newFaultUnit(50, 4)
	f.Touch(0, page(7), HeldWalk{})
	f.Touch(1, page(7), HeldWalk{})
	if f.Stats.Faults != 1 {
		t.Fatalf("same-page touches raised %d faults", f.Stats.Faults)
	}
	for now := int64(0); now <= 60; now++ {
		f.Tick(now)
	}
	if done := len(log.done); done != 2 {
		t.Fatalf("%d held walks delivered, want 2", done)
	}
}

// TestFaultMergeAllocatesNothing pins that a touch merging into a queued
// fault allocates nothing when the fault's notify list has room: the search
// walks the in-flight and queued faults where they are.
func TestFaultMergeAllocatesNothing(t *testing.T) {
	f, _ := newFaultUnit(100, 1)
	for vpn := uint64(1); vpn <= 8; vpn++ {
		f.Touch(0, page(vpn), HeldWalk{})
	}
	if len(f.inflight) != 1 || f.queue.Len() != 7 {
		t.Fatalf("%d faults in flight and %d queued, want 1 and 7", len(f.inflight), f.queue.Len())
	}
	f.queue.At(f.queue.Len() - 1).Notify = make([]HeldWalk, 1, 256)
	if n := testing.AllocsPerRun(100, func() { f.Touch(1, page(8), HeldWalk{}) }); n != 0 {
		t.Fatalf("a merging Touch allocates %v times, want 0", n)
	}
}

func TestFaultConcurrencyLimit(t *testing.T) {
	f, log := newFaultUnit(100, 2)
	for vpn := uint64(0); vpn < 5; vpn++ {
		f.Touch(0, page(vpn), HeldWalk{})
	}
	if f.Outstanding() != 5 {
		t.Fatalf("outstanding=%d, want 5", f.Outstanding())
	}
	// After one service window only the two in-flight faults are done.
	for now := int64(0); now <= 100; now++ {
		f.Tick(now)
	}
	if done := len(log.done); done != 2 {
		t.Fatalf("%d faults done after one window, want 2 (concurrency limit)", done)
	}
	for now := int64(101); now <= 400; now++ {
		f.Tick(now)
	}
	if done := len(log.done); done != 5 {
		t.Fatalf("%d faults done at drain, want 5", done)
	}
	if f.Stats.AvgLatency() <= 100 {
		t.Fatalf("queued faults should raise average latency above the service time, got %v",
			f.Stats.AvgLatency())
	}
}

func TestPrefaultSkipsFault(t *testing.T) {
	f := NewFaultUnit(100, 1)
	f.resident[memreq.PageKey{ASID: 1, VPN: 9}] = true // resident from the start, as a restore leaves it
	if !f.Touch(0, page(9), HeldWalk{}) {
		t.Fatal("prefaulted page still faulted")
	}
}

func TestWalkerWithFaultUnit(t *testing.T) {
	mem := &fakeMem{}
	w, log := newWalker(4, mem)
	sp := pagetable.NewSpace(1, pagetable.PageSize4K, pagetable.NewAllocator())
	w.AddSpace(sp)
	fu := NewFaultUnit(200, 4)
	w.SetFaultUnit(fu)
	if w.faults != fu {
		t.Fatal("fault unit not attached")
	}

	va := uint64(0x4_0000_0000)
	sp.EnsureMapped(va)
	w.StartWalk(0, 1, 0, sp.VPN(va), OriginL2Miss)
	now := int64(0)
	for lvl := 0; lvl < 4; lvl++ {
		w.Tick(now)
		fu.Tick(now)
		mem.completeAll(now + 1)
		now += 2
	}
	// The walk finished but the fault holds the translation.
	if len(log.done) > 0 {
		t.Fatal("translation returned before the fault was serviced")
	}
	for ; now < 300; now++ {
		w.Tick(now)
		fu.Tick(now)
	}
	if len(log.done) != 1 || log.done[0].now < 200 {
		t.Fatalf("translation delivered %+v, want once at >= fault latency 200", log.done)
	}
	if w.Stats.Completed != 1 {
		t.Fatal("walk completion not counted after fault")
	}
}

// heldLog is the FaultSink of FuzzFaultUnit: every held walk it is handed,
// named by its Start, which the fuzzer numbers the touches by.
type heldLog struct {
	done []heldDone
}

type heldDone struct {
	now int64
	key memreq.PageKey
	id  int64
}

func (l *heldLog) FaultDone(now int64, key memreq.PageKey, h HeldWalk) {
	l.done = append(l.done, heldDone{now, key, h.Start})
}

func (l *heldLog) Deliverable(key memreq.PageKey, h HeldWalk) bool { return true }

// FuzzFaultUnit drives a fault unit with touches of eight pages and runs of
// ticks, in the order a run makes them (a cycle's Tick before its touches),
// against a model: a page faults on its first touch, later touches of an
// open fault merge into it, at most Concurrency faults are in service and
// the queued ones start in FIFO order. Every held walk must be delivered
// exactly once, at its fault's service start + Latency. Before each run of
// ticks the unit is imaged, restored into a new unit, and the run goes on
// with the new one: the image must hold the unit whole.
func FuzzFaultUnit(f *testing.F) {
	f.Add([]byte{4, 1, 0, 1, 2, 2, 0x81, 3, 0x80, 0x8f, 4, 0x85})
	f.Add([]byte{1, 0, 7, 7, 7, 0x80, 7, 0x83, 6, 5, 0x81, 0x82})
	f.Add([]byte{15, 3, 0, 2, 4, 6, 1, 3, 5, 7, 0x84, 0, 0x8f, 0x8f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		latency, conc := int64(ops[0]%16)+1, int(ops[1]%4)+1
		log := &heldLog{}
		fu := NewFaultUnit(latency, conc)
		fu.sink = log
		type fault struct {
			key     memreq.PageKey
			service int64 // the cycle its service started, -1 while queued
			ids     []int64
		}
		var (
			open     []*fault // in opening order
			resident = map[memreq.PageKey]bool{}
			start    = map[int64]int64{} // held walk -> its fault's service start
			now      int64
			touches  int64
			faults   uint64
		)
		// inService counts the model's faults in service.
		inService := func() (n int) {
			for _, p := range open {
				if p.service >= 0 {
					n++
				}
			}
			return n
		}
		// tick runs the model's Tick and the unit's at cycle now.
		tick := func() {
			open = slices.DeleteFunc(open, func(p *fault) bool {
				done := p.service >= 0 && p.service+latency <= now
				resident[p.key] = resident[p.key] || done
				return done
			})
			n := inService()
			for _, p := range open {
				if p.service < 0 && n < conc {
					p.service, n = now, n+1
				}
			}
			fu.Tick(now)
		}
		check := func() {
			t.Helper()
			for _, p := range open {
				q := fu.pending(p.key)
				if q == nil || !slices.EqualFunc(q.Notify, p.ids, func(h HeldWalk, id int64) bool { return h.Start == id }) {
					t.Fatalf("cycle %d: the fault of page %#x is %+v, the model's holds walks %v", now, p.key.VPN, q, p.ids)
				}
				for _, id := range p.ids {
					start[id] = p.service
				}
			}
			if n := inService(); len(fu.inflight) != n || n > conc || fu.Outstanding() != len(open) || fu.Stats.Faults != faults {
				t.Fatalf("cycle %d: %d faults in service of %d open, %d raised; the model has %d of %d, %d (concurrency %d)", now, len(fu.inflight), fu.Outstanding(), fu.Stats.Faults, n, len(open), faults, conc)
			}
		}
		tick()
		for _, op := range ops[2:] {
			if op&0x80 == 0 {
				key := memreq.PageKey{ASID: 1, VPN: uint64(op & 7)}
				h := HeldWalk{Start: touches, Origin: OriginL2Miss}
				if op&8 != 0 {
					h.Origin = OriginTrans
				}
				touches++
				var p *fault
				for _, q := range open {
					if q.key == key {
						p = q
					}
				}
				switch {
				case resident[key]:
				case p != nil:
					p.ids = append(p.ids, h.Start)
				default:
					p = &fault{key: key, service: -1, ids: []int64{h.Start}}
					if inService() < conc {
						p.service = now
					}
					open = append(open, p)
					faults++
				}
				if got := fu.Touch(now, key, h); got != resident[key] {
					t.Fatalf("cycle %d: Touch of page %#x says resident %v, the model %v", now, key.VPN, got, resident[key])
				}
				check()
				continue
			}
			// The image taken at cycle now+1, before that cycle's Tick.
			var before, after bytes.Buffer
			var st FaultUnitState
			if err := gob.NewEncoder(&before).Encode(fu.SnapshotState()); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewDecoder(bytes.NewReader(before.Bytes())).Decode(&st); err != nil {
				t.Fatal(err)
			}
			g := NewFaultUnit(latency, conc)
			g.sink = log
			wi := &memreq.Wiring{ASIDs: []uint8{1}, Trans: func(memreq.TransKey) (memreq.Trans, error) { return memreq.Trans{}, nil }, Now: now + 1}
			if err := g.RestoreState(wi, st); err != nil {
				t.Fatalf("cycle %d: restore of the unit's own image: %v", now+1, err)
			}
			if err := gob.NewEncoder(&after).Encode(g.SnapshotState()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("cycle %d: the restored unit images differently", now+1)
			}
			fu = g
			for range op&0x0f + 1 {
				now++
				tick()
				check()
			}
		}
		for limit := now + int64(len(open)+1)*latency; len(open) > 0 && now <= limit; {
			now++
			tick()
			check()
		}
		if len(open) > 0 {
			t.Fatalf("%d faults still open at cycle %d", len(open), now)
		}
		seen := map[int64]bool{}
		for _, d := range log.done {
			if seen[d.id] {
				t.Fatalf("held walk %d delivered twice", d.id)
			}
			seen[d.id] = true
			if s, ok := start[d.id]; !ok || d.now != s+latency {
				t.Fatalf("held walk %d of page %#x delivered at cycle %d, its fault's service started at %d (latency %d)", d.id, d.key.VPN, d.now, s, latency)
			}
		}
		for id := range start {
			if !seen[id] {
				t.Fatalf("held walk %d never delivered", id)
			}
		}
	})
}
