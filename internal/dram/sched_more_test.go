package dram

import (
	"testing"

	"masksim/internal/memreq"
)

// newSched returns an empty channel scheduler for sc; queueCap bounds the
// Normal queue of FR-FCFS and FCFS (0 = unbounded).
func newSched(sc SchedConfig, queueCap int) *sched {
	s := new(sched)
	s.renew(sc, queueCap)
	return s
}

// image returns s's checkpoint image, through which tests read its queue
// occupancy and silver turn.
func image(s *sched) SchedState {
	return s.snapshot(func(q *Queued) QueuedState { return QueuedState{Arrival: q.Arrival} })
}

// queueLens returns the occupancy of (golden, silver, normal) in s's image.
func queueLens(s *sched) (int, int, int) {
	st := image(s)
	return len(st.Golden), len(st.Silver), len(st.Normal)
}

func transQ(arrival int64) *Queued {
	return &Queued{Req: &memreq.Request{Class: memreq.Translation}, Arrival: arrival}
}

func dataQ(app int, arrival int64) *Queued {
	return &Queued{Req: &memreq.Request{Class: memreq.Data, AppID: app}, Arrival: arrival}
}

func TestMASKTranslationSpillsWhenGoldenFull(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 0}, 0) // silver disabled
	for i := 0; i < 16; i++ {
		if !s.enqueue(transQ(int64(i))) {
			t.Fatalf("golden enqueue %d failed", i)
		}
	}
	g, sv, n := queueLens(s)
	if g != 16 || sv != 0 || n != 0 {
		t.Fatalf("lens %d/%d/%d before spill", g, sv, n)
	}
	// The 17th translation spills into silver.
	if !s.enqueue(transQ(16)) {
		t.Fatal("spill enqueue failed")
	}
	g, sv, _ = queueLens(s)
	if g != 16 || sv != 1 {
		t.Fatalf("lens %d/%d after spill, want 16/1", g, sv)
	}
}

func TestMASKRejectsWhenAllQueuesFull(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 1, ThreshMax: 0}, 0)
	// Fill normal (192 cap).
	for i := 0; i < 192; i++ {
		if !s.enqueue(dataQ(0, 0)) {
			t.Fatalf("normal enqueue %d failed", i)
		}
	}
	if s.enqueue(dataQ(0, 0)) {
		t.Fatal("data accepted beyond normal capacity with silver disabled")
	}
}

func TestMASKSilverBeatsNormalAtEqualLocality(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 500}, 0)
	banks := []Bank{{OpenRow: -1, ReadyAt: 0}}
	older := dataQ(1, 0) // app 1 -> normal (app 0 holds the first turn)
	older.Bank, older.Row = 0, 5
	s.enqueue(older)
	silver := dataQ(0, 10) // app 0 -> silver
	silver.Bank, silver.Row = 0, 6
	s.enqueue(silver)
	if got := s.pick(20, banks); got != silver {
		t.Fatal("silver request did not beat older normal request")
	}
}

func TestMASKRowHitBeatsSilverMiss(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 500}, 0)
	banks := []Bank{{OpenRow: 7, ReadyAt: 0}}
	hit := dataQ(1, 0) // normal queue, but an open-row hit
	hit.Bank, hit.Row = 0, 7
	s.enqueue(hit)
	silver := dataQ(0, 10) // silver, row miss
	silver.Bank, silver.Row = 0, 3
	s.enqueue(silver)
	if got := s.pick(20, banks); got != hit {
		t.Fatal("row-locality preservation across queues broken")
	}
}

func TestMASKLenCountsAllQueues(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 2, ThreshMax: 500}, 0)
	s.enqueue(transQ(0))
	s.enqueue(dataQ(0, 0))
	s.enqueue(dataQ(1, 0))
	if s.len() != 3 {
		t.Fatalf("Len=%d, want 3", s.len())
	}
}

func TestMASKPicksNothingWhenBanksBusy(t *testing.T) {
	s := newSched(SchedConfig{Policy: MASK, Apps: 1, ThreshMax: 500}, 0)
	banks := []Bank{{OpenRow: -1, ReadyAt: 100}}
	q := dataQ(0, 0)
	q.Bank = 0
	s.enqueue(q)
	if s.pick(10, banks) != nil {
		t.Fatal("picked a request for a busy bank")
	}
	if got := s.pick(100, banks); got != q {
		t.Fatal("request not served once the bank freed")
	}
}

func TestFRFCFSEmptyPick(t *testing.T) {
	s := newSched(SchedConfig{Policy: FRFCFS}, 4)
	if s.pick(0, []Bank{{OpenRow: -1}}) != nil {
		t.Fatal("picked from an empty queue")
	}
}
