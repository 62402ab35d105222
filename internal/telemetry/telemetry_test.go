package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestRegistryRejectsCollisionsAndBadProbes(t *testing.T) {
	var r Registry
	one := func() float64 { return 1 }
	if err := r.Gauge("x/depth", one); err != nil {
		t.Fatal(err)
	}
	if err := r.Gauge("x/depth", one); err == nil {
		t.Fatal("duplicate gauge name accepted")
	}
	if err := r.Counter("x/depth", one); err == nil {
		t.Fatal("duplicate name accepted across kinds")
	}
	if err := r.Gauge("", one); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Gauge("y", nil); err == nil {
		t.Fatal("nil read function accepted")
	}
	if err := r.Rate("z", one, nil); err == nil {
		t.Fatal("rate without denominator accepted")
	}
	if err := r.Gauge("bad,name", one); err == nil {
		t.Fatal("CSV-hostile name accepted")
	}
	if len(r.probes) != 1 {
		t.Fatalf("registry has %d probes, want 1", len(r.probes))
	}
}

// driveCycles ticks the collector exactly as the engine would: once per
// cycle, now = 0..n-1.
// columnSum sums the named column across all samples; counters telescope to
// their end-of-run totals.
func columnSum(d *Data, name string) (float64, bool) {
	idx := d.ColumnIndex(name)
	if idx < 0 {
		return 0, false
	}
	var sum float64
	for _, s := range d.Samples {
		sum += s.Values[idx]
	}
	return sum, true
}

func driveCycles(c *Collector, n int64) {
	for now := int64(0); now < n; now++ {
		c.Tick(now)
	}
}

func TestCollectorExactSnapshotCount(t *testing.T) {
	var cycles int64
	c := NewCollector(1000)
	if err := c.Counter("eng/cycles", func() float64 { return float64(cycles) }); err != nil {
		t.Fatal(err)
	}
	c.OnSample(func(now int64) { cycles = now })

	driveCycles(c, 10_000)
	c.Finish(10_000)
	d := c.Data()
	if len(d.Samples) != 10 {
		t.Fatalf("got %d samples for a 10000-cycle run at epoch 1000, want exactly 10", len(d.Samples))
	}
	for i, s := range d.Samples {
		if want := int64(i+1) * 1000; s.Cycle != want {
			t.Fatalf("sample %d at cycle %d, want %d", i, s.Cycle, want)
		}
		// Counter columns are per-epoch deltas.
		if s.Values[0] != 1000 {
			t.Fatalf("sample %d delta %v, want 1000", i, s.Values[0])
		}
	}
	if sum, ok := columnSum(d, "eng/cycles"); !ok || sum != 10_000 {
		t.Fatalf("counter column sums to %v, want 10000", sum)
	}
}

func TestCollectorFinishTakesPartialTail(t *testing.T) {
	var v float64
	c := NewCollector(1000)
	if err := c.Counter("c", func() float64 { return v }); err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 2500; now++ {
		v++
		c.Tick(now)
	}
	c.Finish(2500)
	d := c.Data()
	if len(d.Samples) != 3 {
		t.Fatalf("got %d samples for 2500 cycles at epoch 1000, want 3 (2 full + 1 partial)", len(d.Samples))
	}
	if last := d.Samples[2]; last.Cycle != 2500 || last.Values[0] != 500 {
		t.Fatalf("partial tail sample = %+v, want cycle 2500 delta 500", last)
	}
	// Finish on an exact boundary must not double-sample.
	c2 := NewCollector(10)
	if err := c2.Gauge("g", func() float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	driveCycles(c2, 100)
	c2.Finish(100)
	if n := len(c2.Data().Samples); n != 10 {
		t.Fatalf("boundary Finish produced %d samples, want 10", n)
	}
}

func TestCollectorKinds(t *testing.T) {
	var hits, accesses, depth float64
	c := NewCollector(10)
	if err := c.Gauge("q/depth", func() float64 { return depth }); err != nil {
		t.Fatal(err)
	}
	if err := c.Rate("q/hit_rate", func() float64 { return hits }, func() float64 { return accesses }); err != nil {
		t.Fatal(err)
	}
	// Epoch 1: 8 hits of 10 accesses. Epoch 2: no traffic at all.
	for now := int64(0); now < 20; now++ {
		if now < 10 {
			accesses++
			if now < 8 {
				hits++
			}
			depth = float64(now)
		}
		c.Tick(now)
	}
	d := c.Data()
	if got := d.Samples[0].Values[d.ColumnIndex("q/hit_rate")]; got != 0.8 {
		t.Fatalf("epoch-1 hit rate %v, want 0.8", got)
	}
	if got := d.Samples[1].Values[d.ColumnIndex("q/hit_rate")]; got != 0 {
		t.Fatalf("idle-epoch hit rate %v, want 0 (no traffic)", got)
	}
	if got := d.Samples[1].Values[d.ColumnIndex("q/depth")]; got != 9 {
		t.Fatalf("gauge %v, want 9 (instantaneous)", got)
	}
}

// exportTestData runs a small instrumented rig — two probes, three epochs,
// two instant events — and streams it to w in one format, returning the
// sink's Close error.
func exportTestData(format Format, w io.Writer) error {
	var a, b float64
	c := NewCollector(100)
	if err := c.Counter("app0/instructions", func() float64 { return a }); err != nil {
		return err
	}
	if err := c.Gauge("dram/queue", func() float64 { return b }); err != nil {
		return err
	}
	sink := NewStreamSink()
	if err := sink.Attach(format, w); err != nil {
		return err
	}
	if err := c.SetSink(sink); err != nil {
		return err
	}
	for now := int64(0); now < 300; now++ {
		a += 2
		b = float64(now % 7)
		switch now {
		case 150:
			c.Emit(now, "fault.drop", "dram", map[string]string{"kind": "response-drop", "count": "1"})
		case 299:
			c.Emit(now, "watchdog.abort", "engine", map[string]string{"cycle": "299"})
		}
		c.Tick(now)
	}
	return sink.Close()
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := exportTestData(FormatCSV, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,app0/instructions,dram/queue" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+3 {
		t.Fatalf("%d rows, want 3 samples", len(lines)-1)
	}
	if !strings.HasPrefix(lines[1], "100,200,") {
		t.Fatalf("row 1 = %q, want cycle 100, delta 200", lines[1])
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := exportTestData(FormatJSONL, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// meta + 3 samples + 2 events.
	if len(lines) != 6 {
		t.Fatalf("%d JSONL lines, want 6", len(lines))
	}
	var meta struct {
		Type    string `json:"type"`
		Epoch   int64  `json:"epoch"`
		Columns []struct{ Name, Kind string }
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Type != "meta" || meta.Epoch != 100 || len(meta.Columns) != 2 {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Columns[0].Kind != "counter" || meta.Columns[1].Kind != "gauge" {
		t.Fatalf("column kinds = %+v", meta.Columns)
	}
	// Every line must be valid JSON with a known type.
	for i, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		switch rec["type"] {
		case "meta", "sample", "event":
		default:
			t.Fatalf("line %d has unknown type %v", i, rec["type"])
		}
	}
}

func TestWriteChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := exportTestData(FormatChrome, &buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// 3 process_name metadata (app0, dram, engine) + 3 samples x 2 counters
	// + 2 instants.
	if n != 3+6+2 {
		t.Fatalf("trace has %d events, want 11", n)
	}
	// The instant events must be attributed to their component tracks and
	// carry their structured args.
	s := buf.String()
	for _, want := range []string{`"ph":"C"`, `"ph":"i"`, `"ph":"M"`, `"fault.drop"`, `"watchdog.abort"`, `"kind":"response-drop"`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
}

func TestValidateChromeTraceRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents": [`,
		"empty":         `{"traceEvents": []}`,
		"missing name":  `{"traceEvents": [{"ph":"C","pid":1,"ts":1}]}`,
		"missing ph":    `{"traceEvents": [{"name":"x","pid":1,"ts":1}]}`,
		"missing pid":   `{"traceEvents": [{"name":"x","ph":"C","ts":1}]}`,
		"missing ts":    `{"traceEvents": [{"name":"x","ph":"C","pid":1}]}`,
		"non-monotonic": `{"traceEvents": [{"name":"x","ph":"C","pid":1,"ts":5},{"name":"y","ph":"C","pid":1,"ts":4}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	// Metadata events need no ts/pid and don't break monotonicity.
	ok := `{"traceEvents": [{"name":"x","ph":"C","pid":1,"ts":5},{"name":"process_name","ph":"M","pid":2},{"name":"y","ph":"C","pid":1,"ts":6}]}`
	if _, err := ValidateChromeTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("metadata-tolerant trace rejected: %v", err)
	}
}
