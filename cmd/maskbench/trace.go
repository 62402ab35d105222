package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function: spans of one op share Op, and Parent names the span that
// caused this one (-1 for a root).
type span struct {
	Name       string
	Start, End time.Duration // since the tracer was created
	Parent     int
	Op         int
	Lane       int // client or worker the call ran on
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children's Parent.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Stamped under the lock, so spans sit in start order.
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: op, Lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMS returns the duration of every span called name.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// selfMS sums, per span name, each span's duration minus the part of that
// interval its child spans cover (children on concurrent lanes overlap, so
// the cover is the union of their intervals, not the sum).
func (t *tracer) selfMS() map[string]float64 {
	children := make([][]span, len(t.spans))
	for _, s := range t.spans { // in start order, so each list is too
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		var covered, upTo time.Duration
		for _, c := range children[i] {
			if c.End > upTo {
				covered += c.End - max(c.Start, upTo)
				upTo = c.End
			}
		}
		out[s.Name] += ms(s.End - s.Start - covered)
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto); extra tables ride along under otherData.
func (t *tracer) writeChrome(path string, other map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": other})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
