// Package telemetry is the simulator's cycle-level observability subsystem:
// a registry of named pull-based probes, an epoch sampler that snapshots
// every probe into a typed time series, an instant-event stream (watchdog
// aborts, fault injections), and a streaming exporter (StreamSink) writing
// CSV, JSONL and Chrome trace_event JSON (docs/OBSERVABILITY.md).
//
// The subsystem is pull-based and therefore zero-cost when disabled: the
// simulator only builds a Collector when telemetry is requested, components
// keep their ordinary counters either way, and the Collector reads them
// through closures at epoch boundaries only. The few push-style emission
// points (walk-latency histogram, event sinks) are guarded by nil checks, so
// a disabled run does no per-event allocation and no map lookups.
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies how a probe's readings become samples.
type Kind uint8

const (
	// Gauge samples the probe's instantaneous value at each epoch boundary
	// (queue depth, token count, quantile of a running histogram).
	Gauge Kind = iota
	// Counter samples the per-epoch delta of a cumulative counter
	// (instructions retired, walks completed). The exported value for epoch
	// k is fn(end of epoch k) - fn(end of epoch k-1), so the column sums to
	// the final cumulative count.
	Counter
	// Rate samples the ratio of two cumulative counters' per-epoch deltas
	// (hits/accesses over the epoch), 0 when the denominator did not move.
	Rate
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Rate:
		return "rate"
	default:
		return "gauge"
	}
}

type probe struct {
	name string
	kind Kind
	fn   func() float64
	den  func() float64 // Rate only

	ProbeState
}

// Registry holds named probes. Probe names are slash-separated paths whose
// first segment identifies the owning component ("app0/l1tlb/hit_rate",
// "dram/chan3/queue"); the Chrome-trace exporter renders one track per
// component. Registration of a duplicate name is rejected.
type Registry struct {
	probes []*probe
	byName map[string]struct{}
}

func (r *Registry) register(name string, kind Kind, fn, den func() float64) error {
	if name == "" || fn == nil {
		return fmt.Errorf("telemetry: probe needs a name and a read function")
	}
	if strings.ContainsAny(name, ",\n\"") {
		return fmt.Errorf("telemetry: probe name %q contains CSV-hostile characters", name)
	}
	if r.byName == nil {
		r.byName = make(map[string]struct{})
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("telemetry: probe %q already registered", name)
	}
	r.byName[name] = struct{}{}
	r.probes = append(r.probes, &probe{name: name, kind: kind, fn: fn, den: den})
	return nil
}

// Gauge registers an instantaneous-value probe.
func (r *Registry) Gauge(name string, fn func() float64) error {
	return r.register(name, Gauge, fn, nil)
}

// Counter registers a cumulative-counter probe, sampled as per-epoch deltas.
func (r *Registry) Counter(name string, fn func() float64) error {
	return r.register(name, Counter, fn, nil)
}

// Rate registers a ratio probe: delta(num)/delta(den) over each epoch.
func (r *Registry) Rate(name string, num, den func() float64) error {
	if den == nil {
		return fmt.Errorf("telemetry: rate probe %q needs a denominator", name)
	}
	return r.register(name, Rate, num, den)
}

// Column describes one time-series column of collected Data.
type Column struct {
	Name string
	Kind Kind
}

// Component returns the column's owning component: the first path segment of
// its name.
func (c Column) Component() string { return componentOf(c.Name) }

func componentOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// Sample is one epoch snapshot: Values[i] corresponds to Data.Columns[i].
type Sample struct {
	Cycle  int64
	Values []float64
}

// Event is an instant event (watchdog abort, injected fault) attributed to a
// component track.
type Event struct {
	Cycle     int64
	Name      string
	Component string
	Args      map[string]string
}

// Data is the collected result of one instrumented run.
type Data struct {
	// Epoch is the sampling interval in cycles.
	Epoch   int64
	Columns []Column
	Samples []Sample
	Events  []Event
	// Streamed marks a run whose samples and events went to a StreamSink as
	// they were taken; Samples and Events are empty and the exports already
	// exist wherever the sink's writers pointed.
	Streamed bool
}

// Collector owns a Registry and samples it every Epoch cycles. Register it
// with the engine after every instrumented component so each snapshot
// reflects a fully-ticked cycle. It also implements the event-sink interfaces
// of the engine watchdog and the fault injector.
type Collector struct {
	Registry
	epoch    int64
	onSample []func(now int64)
	samples  []Sample
	events   []Event
	sampled  int64       // cycle count covered by taken samples
	sink     *StreamSink // when set, samples/events stream out instead of accumulating
}

// NewCollector returns a collector sampling every epoch cycles (epoch >= 1).
func NewCollector(epoch int64) *Collector {
	if epoch < 1 {
		panic("telemetry: collector epoch must be >= 1")
	}
	return &Collector{epoch: epoch}
}

// SetSink switches the collector to streaming mode: every snapshot and event
// is handed to the sink as it happens and nothing accumulates in memory, so
// an arbitrarily long instrumented run holds O(one epoch) telemetry state.
// Call it after every probe is registered — the sink binds the column
// catalogue and writes each output's prelude here.
func (c *Collector) SetSink(k *StreamSink) error {
	if c.sink != nil {
		return fmt.Errorf("telemetry: collector already has a sink")
	}
	if k == nil {
		return fmt.Errorf("telemetry: nil sink")
	}
	cols := make([]Column, len(c.probes))
	for i, p := range c.probes {
		cols[i] = Column{Name: p.name, Kind: p.kind}
	}
	if err := k.bind(c.epoch, cols); err != nil {
		return err
	}
	c.sink = k
	return nil
}

// OnSample registers a hook invoked just before each snapshot; components use
// it to compute shared scratch state once per epoch (e.g. the DRAM queue
// occupancy matrix) instead of once per probe.
func (c *Collector) OnSample(fn func(now int64)) {
	c.onSample = append(c.onSample, fn)
}

// Tick implements engine.Ticker: after the tick for cycle now, cycles 0..now
// inclusive have been simulated, so the sampler snapshots when (now+1) is an
// epoch boundary and labels the sample with that boundary cycle.
func (c *Collector) Tick(now int64) {
	if (now+1)%c.epoch != 0 {
		return
	}
	c.snapshot(now + 1)
}

// NextEvent implements the engine's EventSource capability: the collector
// must run at every sampling cycle (the last cycle of each epoch), so it
// reports the next one as its horizon and the engine's fast-forward never
// jumps over an epoch boundary. Samples therefore land on exactly the same
// cycles, reading the same counter values, as in a single-stepped run.
func (c *Collector) NextEvent(now int64) int64 {
	// Smallest cycle >= now whose tick triggers a snapshot: k*epoch - 1 for
	// the smallest k with k*epoch - 1 >= now.
	return ((now+c.epoch)/c.epoch)*c.epoch - 1
}

// Finish takes a final partial-epoch sample at cycle now (the end of the
// run) unless now already fell on an epoch boundary. Counter columns then
// telescope to the exact end-of-run totals regardless of run length.
func (c *Collector) Finish(now int64) {
	if now > c.sampled {
		c.snapshot(now)
	}
}

func (c *Collector) snapshot(cycle int64) {
	for _, fn := range c.onSample {
		fn(cycle)
	}
	vals := make([]float64, len(c.probes))
	for i, p := range c.probes {
		cur := p.fn()
		switch p.kind {
		case Gauge:
			vals[i] = cur
		case Counter:
			vals[i] = cur - p.Last
			p.Last = cur
		case Rate:
			den := p.den()
			if dd := den - p.LastDen; dd != 0 {
				vals[i] = (cur - p.Last) / dd
			}
			p.Last = cur
			p.LastDen = den
		}
	}
	if c.sink != nil {
		c.sink.sample(Sample{Cycle: cycle, Values: vals})
	} else {
		c.samples = append(c.samples, Sample{Cycle: cycle, Values: vals})
	}
	c.sampled = cycle
}

// Emit records an instant event. It satisfies the event-sink interfaces of
// internal/engine (watchdog aborts) and internal/faultinject (injected
// faults).
func (c *Collector) Emit(now int64, name, component string, args map[string]string) {
	if c.sink != nil {
		c.sink.event(Event{Cycle: now, Name: name, Component: component, Args: args})
		return
	}
	c.events = append(c.events, Event{Cycle: now, Name: name, Component: component, Args: args})
}

// Data returns the collected time series and events. In streaming mode the
// series lives in the sink's outputs; Data carries the catalogue only, with
// Streamed set.
func (c *Collector) Data() *Data {
	d := &Data{Epoch: c.epoch, Samples: c.samples, Events: c.events, Streamed: c.sink != nil}
	d.Columns = make([]Column, len(c.probes))
	for i, p := range c.probes {
		d.Columns[i] = Column{Name: p.name, Kind: p.kind}
	}
	return d
}

// ColumnIndex returns the index of the named column, or -1.
func (d *Data) ColumnIndex(name string) int {
	for i, col := range d.Columns {
		if col.Name == name {
			return i
		}
	}
	return -1
}

// sortedArgKeys returns an event's argument keys in deterministic order.
func sortedArgKeys(args map[string]string) []string {
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatValue renders a sample value compactly for CSV/JSONL.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
