package telemetry

import "fmt"

// ProbeState is one probe's delta-tracking state — the counter and
// denominator readings at the last sample — which a checkpoint writes as it
// is, index-aligned with the registry's (deterministic) registration order.
type ProbeState struct {
	Last    float64
	LastDen float64
}

// EventState is an Event's checkpoint image: the arguments as (key, value)
// pairs sorted by key, so equal events encode equally.
type EventState struct {
	Cycle     int64
	Name      string
	Component string
	Args      [][2]string
}

func eventState(ev Event) EventState {
	st := EventState{Cycle: ev.Cycle, Name: ev.Name, Component: ev.Component}
	for _, k := range sortedArgKeys(ev.Args) {
		st.Args = append(st.Args, [2]string{k, ev.Args[k]})
	}
	return st
}

func (st EventState) event() Event {
	ev := Event{Cycle: st.Cycle, Name: st.Name, Component: st.Component}
	if len(st.Args) > 0 {
		ev.Args = make(map[string]string, len(st.Args))
		for _, a := range st.Args {
			ev.Args[a[0]] = a[1]
		}
	}
	return ev
}

// CollectorState is the collector's checkpoint image. Sink is set when the
// run streamed its telemetry: Samples and Events are then empty and Sink
// carries the stream resume state instead.
type CollectorState struct {
	Probes  []ProbeState
	Samples []Sample
	Events  []EventState
	Sampled int64
	Sink    *SinkState
}

// SnapshotState captures the collector's checkpoint image. In streaming mode
// the sink is flushed so the recorded output offsets are durable before the
// checkpoint claims them.
func (c *Collector) SnapshotState() (CollectorState, error) {
	st := CollectorState{Samples: c.samples, Sampled: c.sampled}
	if c.sink != nil {
		ss, err := c.sink.mark()
		if err != nil {
			return st, err
		}
		st.Sink = ss
	}
	st.Probes = make([]ProbeState, len(c.probes))
	for i, p := range c.probes {
		st.Probes[i] = p.ProbeState
	}
	for _, ev := range c.events {
		st.Events = append(st.Events, eventState(ev))
	}
	return st, nil
}

// RestoreState restores an image captured by SnapshotState. Probe states are
// matched by registration order, which is identical between the
// checkpointing and the restoring simulator because both build the probe set
// from the same config.
func (c *Collector) RestoreState(st CollectorState) error {
	if len(st.Probes) != len(c.probes) {
		return fmt.Errorf("telemetry: checkpoint has %d probes, collector has %d", len(st.Probes), len(c.probes))
	}
	if st.Sink != nil && c.sink == nil {
		return fmt.Errorf("telemetry: checkpoint streamed its telemetry; attach a streaming sink before restoring")
	}
	if st.Sink == nil && c.sink != nil {
		return fmt.Errorf("telemetry: checkpoint buffered its telemetry; restore without a streaming sink")
	}
	for i, p := range c.probes {
		p.ProbeState = st.Probes[i]
	}
	c.samples = append(c.samples[:0], st.Samples...)
	c.events = c.events[:0]
	for _, es := range st.Events {
		c.events = append(c.events, es.event())
	}
	c.sampled = st.Sampled
	if st.Sink != nil {
		if err := c.sink.restore(st.Sink); err != nil {
			return err
		}
	}
	return nil
}
