package dram

import (
	"math/rand"
	"testing"

	"masksim/internal/engine"
	"masksim/internal/memreq"
)

// FuzzSchedulerContract drives random enqueue, clock-advance, bank-state and
// epoch sequences through one channel scheduler of each Policy, ticking every
// cycle as DRAM.Tick does (one pick per cycle, the picked request's bank then
// busy), and checks the contract the channel and the engine rely on:
//
//   - pick returns only requests whose bank is ready;
//   - every accepted request is picked exactly once, and no refused request
//     is ever picked;
//   - no queue exceeds its capacity, and FR-FCFS and FCFS use the Normal
//     queue alone;
//   - nextReady(now) is engine.NoEvent exactly when the buffer is empty, and
//     is never later than the first cycle at which pick returns a request
//     (the fast-forward "never late" rule, docs/MODEL.md §8).
//
// The inputs pick the policy, the apps taking silver turns, Equation 1's
// thresh_max and the pressure metrics; ops is read two bytes at a time.
func FuzzSchedulerContract(f *testing.F) {
	rnd := rand.New(rand.NewSource(1))
	for policy := range uint8(3) {
		for range 4 {
			ops := make([]byte, 600)
			rnd.Read(ops)
			f.Add(policy, uint8(rnd.Intn(4)), uint8(rnd.Intn(8)), uint8(rnd.Intn(4)), ops)
		}
	}
	f.Fuzz(func(t *testing.T, policy, apps, threshMax, pressure uint8, ops []byte) {
		sc := SchedConfig{Policy: Policy(policy % 3), Apps: int(apps % 4), ThreshMax: int(threshMax % 8)}
		if pressure%4 != 0 {
			sc.Pressure = func(app int) (float64, float64) { return float64((int(pressure) >> app) & 3), 1 }
		}
		checkSchedulerContract(t, sc, ops)
	})
}

func checkSchedulerContract(t *testing.T, sc SchedConfig, ops []byte) {
	const queueCap = 6
	s := newSched(sc, queueCap)
	caps := [3]int{QNormal: queueCap}
	if sc.Policy == MASK {
		caps = maskCaps
	}
	banks := make([]Bank, 4)
	for b := range banks {
		banks[b].OpenRow = -1
	}
	const (
		refused = iota
		waiting
		picked
	)
	state := make(map[*Queued]int)
	var now int64
	horizon := s.nextReady(now, banks)

	// changed re-checks the buffer after a change to it or to the banks at
	// now, and takes the horizon the engine would skip to.
	changed := func() {
		t.Helper()
		for c, queue := range s.q {
			if len(queue) > caps[c] {
				t.Fatalf("%v: queue %d holds %d requests, capacity is %d", sc.Policy, c, len(queue), caps[c])
			}
		}
		horizon = s.nextReady(now, banks)
		if (horizon == engine.NoEvent) != (s.len() == 0) {
			t.Fatalf("%v: nextReady %d with %d requests queued", sc.Policy, horizon, s.len())
		}
	}
	tick := func() {
		t.Helper()
		if q := s.pick(now, banks); q != nil {
			switch {
			case horizon > now:
				t.Fatalf("%v: pick at %d, but nextReady promised nothing before %d", sc.Policy, now, horizon)
			case banks[q.Bank].ReadyAt > now:
				t.Fatalf("%v: picked a request for bank %d, busy until %d, at %d", sc.Policy, q.Bank, banks[q.Bank].ReadyAt, now)
			case state[q] != waiting:
				t.Fatalf("%v: picked a request in state %d (0 refused, 2 picked before)", sc.Policy, state[q])
			}
			state[q] = picked
			b := &banks[q.Bank]
			b.ReadyAt = now + 3
			if b.OpenRow == q.Row {
				b.ReadyAt = now + 1
			}
			b.OpenRow = q.Row
			now++
			changed()
			return
		}
		now++
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 5 {
		case 0, 1:
			req := &memreq.Request{Class: memreq.Data, AppID: int(arg>>1) % max(sc.Apps, 1)}
			if arg&1 != 0 {
				req.Class = memreq.Translation
			}
			q := &Queued{Req: req, Arrival: now, Bank: int(arg>>3) % len(banks), Row: int64(arg>>5) % 3}
			if s.enqueue(q) {
				state[q] = waiting
			} else {
				state[q] = refused
			}
		case 2:
			for range 1 + arg%32 {
				tick()
			}
			continue
		case 3:
			b := &banks[arg%4]
			b.ReadyAt = now + int64(op/5)%16
			b.OpenRow = -1
			if arg&0x80 == 0 {
				b.OpenRow = int64(arg>>2) % 3
			}
		case 4:
			s.epoch()
		}
		changed()
	}

	// Drain: every accepted request must come out.
	for limit := now + 100_000; s.len() > 0 && now < limit; {
		tick()
	}
	for q, st := range state {
		if st == waiting {
			t.Fatalf("%v: accepted request (bank %d, row %d) never picked", sc.Policy, q.Bank, q.Row)
		}
	}
}
