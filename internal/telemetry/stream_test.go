package telemetry

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"masksim/internal/streamio"
)

// streamRig drives a collector deterministically: every probe is a pure
// function of the cycle counter, so two rigs driven over the same cycle
// ranges produce identical telemetry, and a restored rig can resume mid-run
// by setting the cumulative counter to its cycle position.
type streamRig struct {
	c     *Collector
	cum   float64
	depth float64
}

func newStreamRig(t *testing.T, epoch int64) *streamRig {
	t.Helper()
	r := &streamRig{c: NewCollector(epoch)}
	for _, err := range []error{
		r.c.Counter("app0/instructions", func() float64 { return r.cum }),
		r.c.Gauge("dram/queue", func() float64 { return r.depth }),
		r.c.Rate("app0/l1tlb/hit_rate", func() float64 { return r.cum / 2 }, func() float64 { return r.cum }),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// rigEvents are the instant events of the reference run, covering an event
// mid-epoch, one on the cycle before a boundary (so it lands in the sink's
// queued state), and one from a component that owns no columns (so the
// Chrome pid map grows past the bind-time catalogue).
var rigEvents = []Event{
	{Cycle: 150, Name: "fault.drop", Component: "dram", Args: map[string]string{"kind": "response-drop"}},
	{Cycle: 299, Name: "watchdog.warn", Component: "engine", Args: map[string]string{"cycle": "299"}},
	{Cycle: 520, Name: "watchdog.abort", Component: "engine", Args: map[string]string{"cycle": "520"}},
}

// drive simulates cycles [from, to): state update, event emission, then the
// collector tick, exactly as engine-registered components would.
func (r *streamRig) drive(from, to int64) {
	for now := from; now < to; now++ {
		r.cum = float64((now + 1) * 2)
		r.depth = float64(now % 7)
		for _, ev := range rigEvents {
			if ev.Cycle == now {
				r.c.Emit(now, ev.Name, ev.Component, ev.Args)
			}
		}
		r.c.Tick(now)
	}
}

const rigEnd = 600

// goldenReference returns the checked-in exports of the rig's reference run,
// driven over [0, rigEnd) and finished at rigEnd, in all three formats.
func goldenReference(t *testing.T) (csv, jsonl, chrome []byte) {
	t.Helper()
	var out [3][]byte
	for i, name := range []string{"rig.csv", "rig.jsonl", "rig.trace.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out[0], out[1], out[2]
}

func TestStreamingMatchesGolden(t *testing.T) {
	csvRef, jsonlRef, chromeRef := goldenReference(t)

	r := newStreamRig(t, 100)
	sink := NewStreamSink()
	var cb, jb, hb bytes.Buffer
	for _, att := range []struct {
		f Format
		w io.Writer
	}{{FormatCSV, &cb}, {FormatJSONL, &jb}, {FormatChrome, &hb}} {
		if err := sink.Attach(att.f, att.w); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.c.SetSink(sink); err != nil {
		t.Fatal(err)
	}
	r.drive(0, rigEnd)
	r.c.Finish(rigEnd)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.high != rigEnd {
		t.Fatalf("sink high water %d, want %d", sink.high, rigEnd)
	}
	for _, cmp := range []struct {
		name      string
		got, want []byte
	}{{"csv", cb.Bytes(), csvRef}, {"jsonl", jb.Bytes(), jsonlRef}, {"chrome", hb.Bytes(), chromeRef}} {
		if !bytes.Equal(cmp.got, cmp.want) {
			t.Errorf("%s: streaming output differs from testdata\nstream: %.200s\ngolden: %.200s", cmp.name, cmp.got, cmp.want)
		}
	}
	// Streamed mode retains nothing.
	d := r.c.Data()
	if !d.Streamed || len(d.Samples) != 0 || len(d.Events) != 0 {
		t.Fatalf("streamed Data retained samples/events: %+v", d)
	}
	if _, err := ValidateChromeTrace(bytes.NewReader(hb.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSinkCheckpointResume kills a streaming run mid-epoch and resumes
// it from the checkpoint into the same files: the final bytes must match an
// uninterrupted run exactly, with no duplicated or missing epochs, even
// though the dead run wrote further output after the checkpoint was taken.
func TestStreamSinkCheckpointResume(t *testing.T) {
	csvRef, jsonlRef, chromeRef := goldenReference(t)
	dir := t.TempDir()
	paths := map[Format]string{
		FormatCSV:    filepath.Join(dir, "tel.csv"),
		FormatJSONL:  filepath.Join(dir, "tel.jsonl"),
		FormatChrome: filepath.Join(dir, "tel.trace.json"),
	}
	formats := []Format{FormatCSV, FormatJSONL, FormatChrome}

	attach := func(t *testing.T, sink *StreamSink, open func(string) (io.WriteCloser, error)) []io.WriteCloser {
		var files []io.WriteCloser
		for _, f := range formats {
			w, err := open(paths[f])
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, w)
			if err := sink.Attach(f, w); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}

	// Run 1: stream to files, checkpoint mid-epoch at cycle 350 (one sample
	// pending, one event queued behind it), then keep running and die without
	// closing — the post-checkpoint writes are the lost work a real crash
	// leaves behind.
	const ckptAt = 350
	r1 := newStreamRig(t, 100)
	sink1 := NewStreamSink()
	attach(t, sink1, streamio.Create)
	if err := r1.c.SetSink(sink1); err != nil {
		t.Fatal(err)
	}
	r1.drive(0, ckptAt)
	stRaw, err := r1.c.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// The state must survive the gob encoding checkpoints use.
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(stRaw); err != nil {
		t.Fatal(err)
	}
	var st CollectorState
	if err := gob.NewDecoder(&enc).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sink == nil || st.Sink.Pending == nil || len(st.Sink.Queued) != 1 {
		t.Fatalf("checkpoint at cycle %d should hold a pending sample and one queued event, got %+v", ckptAt, st.Sink)
	}
	r1.drive(ckptAt, ckptAt+73) // lost work past the checkpoint

	// Run 2: reopen the same files resumably, restore, finish the run.
	r2 := newStreamRig(t, 100)
	sink2 := NewStreamSink()
	files := attach(t, sink2, streamio.CreateResumable)
	if err := r2.c.SetSink(sink2); err != nil {
		t.Fatal(err)
	}
	if err := r2.c.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	r2.cum = float64(ckptAt * 2) // component state as of the checkpoint
	r2.drive(ckptAt, rigEnd)
	r2.c.Finish(rigEnd)
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	want := map[Format][]byte{FormatCSV: csvRef, FormatJSONL: jsonlRef, FormatChrome: chromeRef}
	for _, f := range formats {
		got, err := os.ReadFile(paths[f])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[f]) {
			t.Errorf("%v: resumed stream differs from uninterrupted run\ngot:  %.300s\nwant: %.300s", f, got, want[f])
		}
	}
}

// TestStreamSinkFreshPreludeResume restores into a non-truncatable writer:
// the sink keeps the fresh prelude and carries only post-checkpoint epochs.
func TestStreamSinkFreshPreludeResume(t *testing.T) {
	const ckptAt = 350
	r1 := newStreamRig(t, 100)
	sink1 := NewStreamSink()
	if err := sink1.Attach(FormatCSV, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := r1.c.SetSink(sink1); err != nil {
		t.Fatal(err)
	}
	r1.drive(0, ckptAt)
	stRaw, err := r1.c.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	r2 := newStreamRig(t, 100)
	sink2 := NewStreamSink()
	var out bytes.Buffer // no Truncate/Seek: fresh-prelude path
	if err := sink2.Attach(FormatCSV, &out); err != nil {
		t.Fatal(err)
	}
	if err := r2.c.SetSink(sink2); err != nil {
		t.Fatal(err)
	}
	if err := r2.c.RestoreState(stRaw); err != nil {
		t.Fatal(err)
	}
	r2.cum = float64(ckptAt * 2)
	r2.drive(ckptAt, rigEnd)
	r2.c.Finish(rigEnd)
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header plus the epochs the resumed run streamed: the pending sample at
	// 300 restored from the checkpoint, then 400, 500, 600.
	if len(lines) != 5 {
		t.Fatalf("fresh-prelude resume wrote %d lines, want 5:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "cycle,") || !strings.HasPrefix(lines[1], "300,") || !strings.HasPrefix(lines[4], "600,") {
		t.Fatalf("fresh-prelude resume content wrong:\n%s", out.String())
	}
}

func TestRestoreModeMismatch(t *testing.T) {
	// Buffered checkpoint into a streaming collector.
	rb := newStreamRig(t, 100)
	rb.drive(0, 200)
	bufState, err := rb.c.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	rs := newStreamRig(t, 100)
	sink := NewStreamSink()
	if err := sink.Attach(FormatCSV, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := rs.c.SetSink(sink); err != nil {
		t.Fatal(err)
	}
	if err := rs.c.RestoreState(bufState); err == nil {
		t.Fatal("buffered checkpoint restored into a streaming collector")
	}

	// Streaming checkpoint into a buffered collector.
	r1 := newStreamRig(t, 100)
	sink1 := NewStreamSink()
	if err := sink1.Attach(FormatCSV, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := r1.c.SetSink(sink1); err != nil {
		t.Fatal(err)
	}
	r1.drive(0, 200)
	streamState, err := r1.c.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	r2 := newStreamRig(t, 100)
	if err := r2.c.RestoreState(streamState); err == nil {
		t.Fatal("streaming checkpoint restored into a buffered collector")
	}
}

// TestStreamSinkRestoreChecksEveryOutput restores an image whose second
// output has another format: the restore is refused before any output is
// flushed or cut back, so the first output, a file the interrupted run
// already filled, keeps every byte.
func TestStreamSinkRestoreChecksEveryOutput(t *testing.T) {
	r1 := newStreamRig(t, 100)
	sink1 := NewStreamSink()
	for _, f := range []Format{FormatCSV, FormatJSONL} {
		if err := sink1.Attach(f, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if err := r1.c.SetSink(sink1); err != nil {
		t.Fatal(err)
	}
	r1.drive(0, 350)
	st, err := r1.c.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "tel.csv")
	before := bytes.Repeat([]byte("the interrupted run's epochs\n"), 100)
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := streamio.CreateResumable(path)
	if err != nil {
		t.Fatal(err)
	}
	r2 := newStreamRig(t, 100)
	sink2 := NewStreamSink()
	for _, w := range []io.Writer{f, io.Discard} {
		if err := sink2.Attach(FormatCSV, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := r2.c.SetSink(sink2); err != nil {
		t.Fatal(err)
	}
	if err := r2.c.RestoreState(st); err == nil || !strings.Contains(err.Error(), "sink output 1 is csv, checkpoint was jsonl") {
		t.Fatalf("restore onto a sink whose second output has another format: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused restore changed the first output (%d bytes, was %d): %v", len(after), len(before), err)
	}
}

// TestTakeSink hands a bound sink to a collector of the same catalogue,
// which streams on without a second prelude; binding a sink twice stays an
// error.
func TestTakeSink(t *testing.T) {
	var out bytes.Buffer
	first := newStreamRig(t, 100)
	sink := NewStreamSink()
	if err := sink.Attach(FormatCSV, &out); err != nil {
		t.Fatal(err)
	}
	if err := first.c.SetSink(sink); err != nil {
		t.Fatal(err)
	}
	r := newStreamRig(t, 100)
	if err := r.c.SetSink(sink); err == nil || !strings.Contains(err.Error(), "bound twice") {
		t.Fatalf("second bind: %v, want the double-bind error", err)
	}
	r.c.TakeSink(first.c)
	r.drive(0, 300)
	r.c.Finish(300)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 4 || strings.Count(out.String(), "cycle,") != 1 {
		t.Fatalf("the taken sink wrote:\n%s\nwant one header and three epochs", out.String())
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errDiskFull
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestExportersPropagateWriteErrors pins that no format swallows a write
// error: a sink over an output that fails must surface the first failure
// from Close, wherever in the document it strikes.
func TestExportersPropagateWriteErrors(t *testing.T) {
	for _, f := range []Format{FormatCSV, FormatJSONL, FormatChrome} {
		var full bytes.Buffer
		if err := exportTestData(f, &full); err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 7, full.Len() / 2, full.Len() - 1} {
			if err := exportTestData(f, &failAfter{n: budget}); !errors.Is(err, errDiskFull) {
				t.Errorf("%v with %d-byte budget returned %v, want disk-full error", f, budget, err)
			}
		}
		// Sanity: a roomy writer succeeds.
		if err := exportTestData(f, io.Discard); err != nil {
			t.Errorf("%v failed on a working writer: %v", f, err)
		}
	}
}

// TestStreamSinkWriteErrorIsSticky checks the live path too: once an output
// fails, the sink suppresses further writes and reports the first error from
// Err, Close and the checkpoint marker.
func TestStreamSinkWriteErrorIsSticky(t *testing.T) {
	r := newStreamRig(t, 10)
	sink := NewStreamSink()
	if err := sink.Attach(FormatCSV, &failAfter{n: 64}); err != nil {
		t.Fatal(err)
	}
	if err := r.c.SetSink(sink); err != nil {
		t.Fatal(err)
	}
	// Drive enough epochs to overflow the write budget plus any buffering.
	for i := 0; i < 4000 && sink.err == nil; i++ {
		r.drive(int64(i*10), int64((i+1)*10))
	}
	if !errors.Is(sink.err, errDiskFull) {
		t.Fatalf("sink error = %v, want disk full", sink.err)
	}
	if _, err := r.c.SnapshotState(); err == nil {
		t.Fatal("checkpointing a failed sink succeeded")
	}
	if err := sink.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the first write error", err)
	}
}

// TestStreamingMemoryFlat is the O(1)-memory gate (CI runs it by name): a
// million-sample instrumented run must not retain the time series when a
// streaming sink is attached. It logs the retained-heap numbers; the stream
// spine's throughput is the ledger's workload.mtb_decode_mb_per_s.
func TestStreamingMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a million-sample run")
	}
	const samples = 1_000_000
	retained := func(streaming bool) int64 {
		r := newStreamRig(t, 1) // epoch 1: one sample per cycle
		var sink *StreamSink
		if streaming {
			sink = NewStreamSink()
			if err := sink.Attach(FormatCSV, io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := r.c.SetSink(sink); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r.drive(0, samples)
		r.c.Finish(samples)
		if streaming {
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	buffered := retained(false)
	streamed := retained(true)
	t.Logf("retained heap after %d samples: buffered %d bytes, streaming %d bytes", samples, buffered, streamed)
	if streamed > buffered/20 {
		t.Fatalf("streaming run retains %d bytes, buffered retains %d: streaming telemetry is not O(1)", streamed, buffered)
	}
}
