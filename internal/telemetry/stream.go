package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"masksim/internal/streamio"
)

// Format identifies a StreamSink output encoding.
type Format uint8

const (
	// FormatCSV is a "cycle" column followed by one column per probe, one row
	// per epoch sample. Instant events are not part of it.
	FormatCSV Format = iota
	// FormatJSONL is one JSON object per line: a leading "meta" record with
	// the column catalogue, then "sample" and "event" records in cycle order.
	FormatJSONL
	// FormatChrome is Chrome trace_event JSON: one process (track group) per
	// component, a counter event ("ph":"C") per probe sample and an instant
	// event ("ph":"i") per watchdog abort or injected fault, at timestamps
	// that are simulation cycles read as microseconds, never decreasing.
	FormatChrome
)

// String names the format for diagnostics and checkpoint mismatch errors.
func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "csv"
	case FormatJSONL:
		return "jsonl"
	case FormatChrome:
		return "chrome"
	default:
		return fmt.Sprintf("format(%d)", uint8(f))
	}
}

// sinkStream is one attached output: a buffered writer over a byte counter
// over the caller's writer, plus the per-format incremental state.
type sinkStream struct {
	format Format
	raw    io.Writer // as attached; truncated directly on checkpoint resume
	cw     *streamio.CountingWriter
	bw     *bufio.Writer
	enc    *json.Encoder // JSONL

	// Chrome trace_event state. PIDs are assigned in first-appearance order
	// (column components at bind, event components lazily before their first
	// instant event) and the comma flag tracks whether the traceEvents array
	// already holds an element.
	pids       map[string]int
	nextPID    int
	wroteEvent bool
}

// StreamSink writes telemetry incrementally as epochs close: it is the one
// exporter, so an instrumented run holds O(one epoch) of telemetry whatever
// its length.
//
// Buffering is bounded: the sink holds at most one undecided sample plus the
// instant events of the current epoch. The one-sample delay exists because
// the export formats order an event at cycle c relative to the sample at
// cycle c differently from their arrival order (the sample is taken during
// tick c-1, the event fires during tick c), so a sample is only committed
// once something later proves no more events can precede it.
//
// All errors are sticky: the first write failure is recorded, subsequent
// output is suppressed, and Close (and Err) report it.
type StreamSink struct {
	streams []*sinkStream
	cols    []Column
	epoch   int64
	bound   bool
	closed  bool

	pending *Sample
	queued  []Event
	high    int64 // cycle of the newest sample fully written to every stream
	err     error

	autoFlush bool
}

// NewStreamSink returns an empty sink; Attach writers, then hand it to
// Collector.SetSink (which binds the column catalogue and writes preludes).
func NewStreamSink() *StreamSink { return &StreamSink{} }

// Attach adds an output in the given format. All outputs must be attached
// before the sink is bound.
func (k *StreamSink) Attach(format Format, w io.Writer) error {
	if k.bound {
		return fmt.Errorf("telemetry: sink already bound; attach outputs first")
	}
	if w == nil {
		return fmt.Errorf("telemetry: nil sink writer")
	}
	cw := &streamio.CountingWriter{W: w}
	st := &sinkStream{format: format, raw: w, cw: cw, bw: bufio.NewWriter(cw)}
	if format == FormatJSONL {
		st.enc = json.NewEncoder(st.bw)
	}
	k.streams = append(k.streams, st)
	return nil
}

// SetAutoFlush makes the sink flush every output's buffer each time an epoch
// commits, instead of only on checkpoint marks and Close. The bytes written
// are identical either way — only their timing changes — so enable this when
// an output is a live feed (an SSE stream, a pipe) that should see each epoch
// as it closes rather than when 256KB of them have accumulated.
func (k *StreamSink) SetAutoFlush(on bool) { k.autoFlush = on }

// BytesWritten sums the logical (pre-compression) bytes accepted by all
// attached outputs, including bytes still in the sink's buffers.
func (k *StreamSink) BytesWritten() int64 {
	var n int64
	for _, st := range k.streams {
		n += st.cw.N + int64(st.bw.Buffered())
	}
	return n
}

func (k *StreamSink) fail(err error) {
	if k.err == nil && err != nil {
		k.err = err
	}
}

// bind fixes the column catalogue and writes each stream's prelude: the CSV
// header, the JSONL meta record, the Chrome envelope opener plus one
// process_name metadata event per column component.
func (k *StreamSink) bind(epoch int64, cols []Column) error {
	if k.bound {
		return fmt.Errorf("telemetry: sink bound twice")
	}
	if len(k.streams) == 0 {
		return fmt.Errorf("telemetry: sink has no outputs attached")
	}
	k.bound = true
	k.epoch = epoch
	k.cols = append([]Column(nil), cols...)
	for _, st := range k.streams {
		if err := k.prelude(st); err != nil {
			k.fail(err)
			return err
		}
	}
	return nil
}

func (k *StreamSink) prelude(st *sinkStream) error {
	switch st.format {
	case FormatCSV:
		if _, err := st.bw.WriteString("cycle"); err != nil {
			return err
		}
		for _, col := range k.cols {
			st.bw.WriteByte(',')
			if _, err := st.bw.WriteString(col.Name); err != nil {
				return err
			}
		}
		return st.bw.WriteByte('\n')
	case FormatJSONL:
		meta := jsonlRecord{Type: "meta", Epoch: k.epoch}
		for _, col := range k.cols {
			meta.Columns = append(meta.Columns, jsonlColumn{Name: col.Name, Kind: col.Kind.String()})
		}
		return st.enc.Encode(meta)
	case FormatChrome:
		st.pids = make(map[string]int)
		st.nextPID = 1 // pid 0 renders poorly in some viewers
		if _, err := st.bw.WriteString(`{"traceEvents":[`); err != nil {
			return err
		}
		for _, col := range k.cols {
			if _, err := st.chromePID(col.Component()); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("telemetry: unknown sink format %v", st.format)
	}
}

// chromePID returns the component's pid, emitting its process_name metadata
// event on first use. The empty component maps to pid 0 with no metadata,
// matching the historical exporter.
func (st *sinkStream) chromePID(comp string) (int, error) {
	if comp == "" {
		return 0, nil
	}
	if pid, ok := st.pids[comp]; ok {
		return pid, nil
	}
	pid := st.nextPID
	st.nextPID++
	st.pids[comp] = pid
	err := st.chromeEvent(ChromeEvent{
		Name: "process_name", Phase: "M", PID: pid,
		Args: map[string]any{"name": comp},
	})
	return pid, err
}

// chromeEvent appends one element to the traceEvents array.
func (st *sinkStream) chromeEvent(ev ChromeEvent) error {
	raw, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if st.wroteEvent {
		if err := st.bw.WriteByte(','); err != nil {
			return err
		}
	}
	st.wroteEvent = true
	_, err = st.bw.Write(raw)
	return err
}

// sample feeds one epoch snapshot. The sink takes ownership of s.Values.
func (k *StreamSink) sample(s Sample) {
	if k.err != nil || k.closed {
		return
	}
	if !k.bound {
		k.fail(fmt.Errorf("telemetry: sample before sink bind"))
		return
	}
	if len(s.Values) != len(k.cols) {
		k.fail(fmt.Errorf("telemetry: sample has %d values, sink bound to %d columns", len(s.Values), len(k.cols)))
		return
	}
	if k.pending != nil {
		k.flushPending()
	}
	k.pending = &s
}

// event feeds one instant event. Events arrive in cycle order; an event
// beyond the pending sample's cycle proves that sample complete.
func (k *StreamSink) event(ev Event) {
	if k.err != nil || k.closed {
		return
	}
	if k.pending != nil && ev.Cycle > k.pending.Cycle {
		k.flushPending()
	}
	k.queued = append(k.queued, ev)
}

// flushPending commits the held sample and the queued events of its epoch to
// every stream, in each format's required order.
func (k *StreamSink) flushPending() {
	s := *k.pending
	k.pending = nil
	// Split the queue around the sample cycle: arrival order is cycle order,
	// so a prefix precedes the sample's cycle and the rest coincides with it.
	firstAt := len(k.queued)
	for i, ev := range k.queued {
		if ev.Cycle >= s.Cycle {
			firstAt = i
			break
		}
	}
	for _, st := range k.streams {
		if k.err != nil {
			break
		}
		switch st.format {
		case FormatCSV:
			k.fail(k.csvRow(st, s))
		case FormatJSONL:
			// Events at the sample's cycle sort before the sample here.
			for _, ev := range k.queued {
				k.fail(k.jsonlEvent(st, ev))
			}
			k.fail(k.jsonlSample(st, s))
		case FormatChrome:
			// ...and after the counter batch there.
			for _, ev := range k.queued[:firstAt] {
				k.fail(k.chromeInstant(st, ev))
			}
			k.fail(k.chromeCounters(st, s))
			for _, ev := range k.queued[firstAt:] {
				k.fail(k.chromeInstant(st, ev))
			}
		}
	}
	k.queued = k.queued[:0]
	if k.err == nil {
		k.high = s.Cycle
	}
	if k.autoFlush {
		for _, st := range k.streams {
			if k.err != nil {
				break
			}
			k.fail(st.bw.Flush())
		}
	}
}

func (k *StreamSink) csvRow(st *sinkStream, s Sample) error {
	if _, err := fmt.Fprintf(st.bw, "%d", s.Cycle); err != nil {
		return err
	}
	for _, v := range s.Values {
		st.bw.WriteByte(',')
		if _, err := st.bw.WriteString(formatValue(v)); err != nil {
			return err
		}
	}
	return st.bw.WriteByte('\n')
}

func (k *StreamSink) jsonlSample(st *sinkStream, s Sample) error {
	rec := jsonlRecord{Type: "sample", Cycle: s.Cycle, Values: make(map[string]float64, len(s.Values))}
	for i, v := range s.Values {
		rec.Values[k.cols[i].Name] = v
	}
	return st.enc.Encode(rec)
}

func (k *StreamSink) jsonlEvent(st *sinkStream, ev Event) error {
	return st.enc.Encode(jsonlRecord{Type: "event", Cycle: ev.Cycle, Name: ev.Name, Component: ev.Component, Args: ev.Args})
}

func (k *StreamSink) chromeCounters(st *sinkStream, s Sample) error {
	for i, v := range s.Values {
		col := k.cols[i]
		name := col.Name
		if j := strings.IndexByte(name, '/'); j >= 0 {
			name = name[j+1:]
		}
		pid, err := st.chromePID(col.Component())
		if err != nil {
			return err
		}
		err = st.chromeEvent(ChromeEvent{
			Name: name, Phase: "C", PID: pid,
			TS: float64(s.Cycle), Args: map[string]any{"value": v},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (k *StreamSink) chromeInstant(st *sinkStream, ev Event) error {
	args := make(map[string]any, len(ev.Args))
	for _, kk := range sortedArgKeys(ev.Args) {
		args[kk] = ev.Args[kk]
	}
	pid, err := st.chromePID(ev.Component)
	if err != nil {
		return err
	}
	return st.chromeEvent(ChromeEvent{
		Name: ev.Name, Phase: "i", PID: pid,
		TS: float64(ev.Cycle), Scope: "p", Args: args,
	})
}

// chromeTrailer closes the traceEvents array and the envelope. The byte
// layout matches json.Marshal of the historical chromeTrace struct.
func chromeTrailer(st *sinkStream) error {
	_, err := st.bw.WriteString(`],"displayTimeUnit":"ms","metadata":{"clock":"gpu-core-cycles-as-us","source":"masksim"}}` + "\n")
	return err
}

// Close commits the held sample, writes trailing events and per-format
// trailers, and flushes every stream. It returns the first error seen over
// the sink's whole lifetime.
func (k *StreamSink) Close() error {
	if k.closed {
		return k.err
	}
	k.closed = true
	if !k.bound {
		// Attached but never bound (e.g. the run failed before the collector
		// was built): nothing was promised, nothing is written.
		return k.err
	}
	if k.pending != nil {
		k.flushPending()
	}
	for _, st := range k.streams {
		if k.err != nil {
			break
		}
		// Events after the final sample (or from a run with no samples).
		switch st.format {
		case FormatJSONL:
			for _, ev := range k.queued {
				k.fail(k.jsonlEvent(st, ev))
			}
		case FormatChrome:
			for _, ev := range k.queued {
				k.fail(k.chromeInstant(st, ev))
			}
		}
		if st.format == FormatChrome && k.err == nil {
			k.fail(chromeTrailer(st))
		}
	}
	k.queued = nil
	for _, st := range k.streams {
		k.fail(st.bw.Flush())
	}
	return k.err
}

// SinkStreamState is one output's checkpoint image. Tracks lists the Chrome
// trace's components in pid order (pids count up from 1 in first-appearance
// order).
type SinkStreamState struct {
	Format     Format
	Offset     int64 // logical bytes committed (post-flush CountingWriter count)
	Tracks     []string
	WroteEvent bool
}

// SinkState is the streaming sink's checkpoint image: the undecided sample
// and queued events plus each output's resume offset and format state.
type SinkState struct {
	HighWater int64
	Pending   *Sample
	Queued    []EventState
	Streams   []SinkStreamState
}

// mark flushes every stream and captures the sink's resume state. The flush
// makes the recorded offsets real file offsets, so a crash after the
// checkpoint loses nothing the checkpoint promises.
func (k *StreamSink) mark() (*SinkState, error) {
	if k.err != nil {
		return nil, fmt.Errorf("telemetry: sink is failed: %w", k.err)
	}
	for _, st := range k.streams {
		if err := st.bw.Flush(); err != nil {
			k.fail(err)
			return nil, err
		}
	}
	st := &SinkState{HighWater: k.high}
	if k.pending != nil {
		cp := Sample{Cycle: k.pending.Cycle, Values: append([]float64(nil), k.pending.Values...)}
		st.Pending = &cp
	}
	for _, ev := range k.queued {
		st.Queued = append(st.Queued, eventState(ev))
	}
	for _, s := range k.streams {
		ss := SinkStreamState{Format: s.format, Offset: s.cw.N, WroteEvent: s.wroteEvent}
		if len(s.pids) > 0 {
			ss.Tracks = make([]string, s.nextPID-1)
			for comp, pid := range s.pids {
				ss.Tracks[pid-1] = comp
			}
		}
		st.Streams = append(st.Streams, ss)
	}
	return st, nil
}

// restore rewinds the sink to a checkpointed state. Outputs that support
// truncation (plain files) are cut back to the recorded offset so the
// resumed stream is byte-identical to an uninterrupted run; outputs that do
// not (gzip, pipes, network feeds) keep the prelude bind just wrote and
// carry only post-checkpoint epochs, which is the documented fresh-prelude
// resume mode.
func (k *StreamSink) restore(st *SinkState) error {
	if !k.bound {
		return fmt.Errorf("telemetry: restore before sink bind")
	}
	if len(st.Streams) != len(k.streams) {
		return fmt.Errorf("telemetry: checkpoint has %d sink outputs, sink has %d", len(st.Streams), len(k.streams))
	}
	for i, s := range k.streams {
		saved := st.Streams[i]
		if saved.Format != s.format {
			return fmt.Errorf("telemetry: sink output %d is %v, checkpoint was %v", i, s.format, saved.Format)
		}
		// The prelude bind just wrote must sit inside the recorded offset,
		// or the checkpoint came from a different column catalogue.
		if buffered := s.cw.N + int64(s.bw.Buffered()); saved.Offset < buffered {
			return fmt.Errorf("telemetry: checkpoint offset %d is inside the %d-byte prelude (column catalogue mismatch?)", saved.Offset, buffered)
		}
		if err := s.bw.Flush(); err != nil {
			return err
		}
		ok, err := streamio.TruncateTo(s.raw, saved.Offset)
		if err != nil {
			return fmt.Errorf("telemetry: rewind sink output %d: %w", i, err)
		}
		if !ok {
			continue // fresh-prelude resume: keep the state bind built
		}
		s.cw.N = saved.Offset
		s.bw.Reset(s.cw)
		if s.format == FormatChrome {
			s.pids = make(map[string]int, len(saved.Tracks))
			for i, comp := range saved.Tracks {
				s.pids[comp] = i + 1
			}
			s.nextPID = len(saved.Tracks) + 1
			s.wroteEvent = saved.WroteEvent
		}
	}
	k.high = st.HighWater
	k.pending = nil
	if st.Pending != nil {
		cp := Sample{Cycle: st.Pending.Cycle, Values: append([]float64(nil), st.Pending.Values...)}
		k.pending = &cp
	}
	k.queued = k.queued[:0]
	for _, es := range st.Queued {
		k.queued = append(k.queued, es.event())
	}
	return nil
}
