package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonlRecord is one FormatJSONL line.
type jsonlRecord struct {
	Type      string             `json:"type"` // "meta", "sample" or "event"
	Cycle     int64              `json:"cycle,omitempty"`
	Epoch     int64              `json:"epoch,omitempty"`     // meta
	Columns   []jsonlColumn      `json:"columns,omitempty"`   // meta
	Values    map[string]float64 `json:"values,omitempty"`    // sample
	Name      string             `json:"name,omitempty"`      // event
	Component string             `json:"component,omitempty"` // event
	Args      map[string]string  `json:"args,omitempty"`      // event
}

type jsonlColumn struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// ChromeEvent is one entry of a Chrome trace_event JSON file
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU);
// chrome://tracing and Perfetto load the containing file directly.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts"`
	Scope string         `json:"s,omitempty"` // instant events: "g"lobal / "p"rocess
	Args  map[string]any `json:"args,omitempty"`
}

// ValidateChromeTrace parses a trace_event JSON document and checks the
// invariants the trace viewers rely on (`masktrace check` runs it): every
// event carries a name and a phase, counter/instant events carry a pid and
// sit at non-decreasing timestamps. It returns the number of events.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var trace struct {
		TraceEvents []struct {
			Name  *string  `json:"name"`
			Phase *string  `json:"ph"`
			PID   *int     `json:"pid"`
			TS    *float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&trace); err != nil {
		return 0, fmt.Errorf("telemetry: trace is not valid JSON: %w", err)
	}
	if len(trace.TraceEvents) == 0 {
		return 0, fmt.Errorf("telemetry: trace has no events")
	}
	lastTS := -1.0
	for i, ev := range trace.TraceEvents {
		if ev.Name == nil || *ev.Name == "" {
			return 0, fmt.Errorf("telemetry: event %d has no name", i)
		}
		if ev.Phase == nil || *ev.Phase == "" {
			return 0, fmt.Errorf("telemetry: event %d (%s) has no ph", i, *ev.Name)
		}
		if *ev.Phase == "M" {
			continue // metadata events are unordered and need no ts
		}
		if ev.PID == nil {
			return 0, fmt.Errorf("telemetry: event %d (%s) has no pid", i, *ev.Name)
		}
		if ev.TS == nil {
			return 0, fmt.Errorf("telemetry: event %d (%s) has no ts", i, *ev.Name)
		}
		if *ev.TS < lastTS {
			return 0, fmt.Errorf("telemetry: event %d (%s) ts %v < previous %v (not monotonic)",
				i, *ev.Name, *ev.TS, lastTS)
		}
		lastTS = *ev.TS
	}
	return len(trace.TraceEvents), nil
}
