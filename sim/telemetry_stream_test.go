package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"masksim/internal/faultinject"
	"masksim/internal/streamio"
	"masksim/internal/telemetry"
)

func streamTestConfig() Config {
	cfg := MASKConfig()
	cfg.Cores = 4
	cfg.WarpsPerCore = 16
	cfg.TelemetryEpoch = 900 // does not divide the run length: partial tail
	return cfg
}

// TestSimStreamingMatchesBufferedExports runs the same simulation twice —
// once buffering telemetry into Results, once streaming it through a sink —
// and requires the streamed exports to carry exactly the buffered series: the
// CSV byte for byte, every JSONL sample value for value, a valid Chrome trace
// with one counter per sample and column. The simulation results must match
// too (the sink must be an observer, never a perturbation).
func TestSimStreamingMatchesBufferedExports(t *testing.T) {
	const cycles = 4000
	names := []string{"3DS", "CONS"}

	cfg := streamTestConfig()
	refSim := prepareScenario(t, cfg, names, 0)
	ref := refSim.mustRun(t, cycles)
	d := ref.Telemetry

	sink := telemetry.NewStreamSink()
	var csv, jsonl, chrome bytes.Buffer
	for _, att := range []struct {
		f telemetry.Format
		w io.Writer
	}{{telemetry.FormatCSV, &csv}, {telemetry.FormatJSONL, &jsonl}, {telemetry.FormatChrome, &chrome}} {
		if err := sink.Attach(att.f, att.w); err != nil {
			t.Fatal(err)
		}
	}
	stCfg := streamTestConfig()
	stCfg.TelemetrySink = sink
	stSim := prepareScenario(t, stCfg, names, 0)
	res := stSim.mustRun(t, cycles)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if !res.Telemetry.Streamed || len(res.Telemetry.Samples) != 0 {
		t.Fatalf("streaming run retained %d samples in Results", len(res.Telemetry.Samples))
	}
	if res.Cycles != ref.Cycles {
		t.Fatalf("streaming run simulated %d cycles, buffered %d", res.Cycles, ref.Cycles)
	}
	for i := range ref.Apps {
		if res.Apps[i].Instructions != ref.Apps[i].Instructions {
			t.Fatalf("app %d retired %d instructions streaming, %d buffered: the sink perturbed the run",
				i, res.Apps[i].Instructions, ref.Apps[i].Instructions)
		}
	}
	if len(d.Samples) < 2 || len(d.Events) != 0 {
		t.Fatalf("reference run has %d samples and %d events, want a series and no events", len(d.Samples), len(d.Events))
	}

	var want bytes.Buffer
	want.WriteString("cycle")
	for _, col := range d.Columns {
		want.WriteString("," + col.Name)
	}
	for _, smp := range d.Samples {
		fmt.Fprintf(&want, "\n%d", smp.Cycle)
		for _, v := range smp.Values {
			want.WriteString("," + strconv.FormatFloat(v, 'g', 6, 64))
		}
	}
	want.WriteString("\n")
	if !bytes.Equal(csv.Bytes(), want.Bytes()) {
		t.Errorf("streamed CSV differs from the buffered series (%d vs %d bytes)", csv.Len(), want.Len())
	}

	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 1+len(d.Samples) {
		t.Fatalf("JSONL has %d lines, want meta + %d samples", len(lines), len(d.Samples))
	}
	for i, ln := range lines[1:] {
		var rec struct {
			Cycle  int64
			Values map[string]float64
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatal(err)
		}
		smp := d.Samples[i]
		for j, col := range d.Columns {
			if rec.Cycle != smp.Cycle || rec.Values[col.Name] != smp.Values[j] {
				t.Fatalf("JSONL sample %d: %s = %v at cycle %d, buffered %v at cycle %d", i, col.Name, rec.Values[col.Name], rec.Cycle, smp.Values[j], smp.Cycle)
			}
		}
	}

	if _, err := telemetry.ValidateChromeTrace(bytes.NewReader(chrome.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n, want := strings.Count(chrome.String(), `"ph":"C"`), len(d.Samples)*len(d.Columns); n != want {
		t.Errorf("Chrome trace has %d counter events, want %d", n, want)
	}
}

// TestSimStreamingCheckpointResume resumes a streaming instrumented run from
// a mid-run checkpoint into the same telemetry files the original run wrote:
// the restore must truncate each file back to the exact offset the 2600
// checkpoint recorded (cutting every byte the original run emitted after it),
// replay the sink's pending sample, and regenerate a byte-identical tail.
func TestSimStreamingCheckpointResume(t *testing.T) {
	const cycles = 4000
	const every = 1300 // checkpoints at 1300, 2600; the kill lands after 2600
	names := []string{"3DS", "CONS"}
	dir := t.TempDir()
	paths := map[telemetry.Format]string{
		telemetry.FormatCSV:    filepath.Join(dir, "tel.csv"),
		telemetry.FormatJSONL:  filepath.Join(dir, "tel.jsonl"),
		telemetry.FormatChrome: filepath.Join(dir, "tel.trace.json"),
	}
	formats := []telemetry.Format{telemetry.FormatCSV, telemetry.FormatJSONL, telemetry.FormatChrome}

	attach := func(t *testing.T, open func(string) (io.WriteCloser, error)) (*telemetry.StreamSink, []io.WriteCloser) {
		t.Helper()
		sink := telemetry.NewStreamSink()
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
		return sink, files
	}
	closeAll := func(t *testing.T, sink *telemetry.StreamSink, files []io.WriteCloser) {
		t.Helper()
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reference: one uninterrupted streaming run.
	refSink, refFiles := attach(t, streamio.Create)
	refCfg := streamTestConfig()
	refCfg.TelemetrySink = refSink
	prepareScenario(t, refCfg, names, 0).mustRun(t, cycles)
	closeAll(t, refSink, refFiles)
	want := map[telemetry.Format][]byte{}
	for _, f := range formats {
		b, err := os.ReadFile(paths[f])
		if err != nil {
			t.Fatal(err)
		}
		want[f] = b
	}

	// Checkpointing run: stream into the same paths while writing periodic
	// checkpoints, and let it complete. The files now hold ~1400 cycles of
	// telemetry past the 2600 checkpoint's recorded offsets — exactly the
	// stale tail a restore must cut before re-emitting it.
	ckSink, ckFiles := attach(t, streamio.Create)
	ckCfg := streamTestConfig()
	ckCfg.TelemetrySink = ckSink
	ckCfg.CheckpointEvery = every
	ckCfg.CheckpointDir = dir
	ckSim := prepareScenario(t, ckCfg, names, 0)
	ckSim.mustRun(t, cycles)
	closeAll(t, ckSink, ckFiles)
	ckpt, err := os.ReadFile(ckSim.checkpointPath(2600))
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}

	// Resume: fresh simulator, same files reopened resumably (no truncation
	// on open), restore the checkpoint, run the rest.
	rsSink, rsFiles := attach(t, streamio.CreateResumable)
	rsCfg := streamTestConfig()
	rsCfg.TelemetrySink = rsSink
	rsSim := prepareScenario(t, rsCfg, names, 0)
	if err := rsSim.RestoreCheckpoint(bytes.NewReader(ckpt)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rsSim.eng.Now() != 2600 {
		t.Fatalf("restored to cycle %d, want 2600", rsSim.eng.Now())
	}
	rsSim.mustRun(t, cycles)
	closeAll(t, rsSink, rsFiles)

	for _, f := range formats {
		got, err := os.ReadFile(paths[f])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[f]) {
			t.Errorf("%v: resumed stream differs from uninterrupted run (%d vs %d bytes)", f, len(got), len(want[f]))
		}
	}
}

// TestSimStreamingKillResume is the crash-flavored sibling of the resume test
// above: a streaming run armed with a fault plan dies from an injected engine
// panic at cycle 3000 without closing its sink, leaving each file at whatever
// its last checkpoint flush produced (committed rows are durable, the
// mid-epoch tail is not). The resume is built WITHOUT the fault plan — the
// fault injector registers its engine ticker last precisely so a plan-free
// simulator names every request sink by the same index as a plan-bearing
// checkpoint — and must reproduce the uninterrupted run's bytes exactly.
func TestSimStreamingKillResume(t *testing.T) {
	const cycles = 4000
	const every = 1300
	names := []string{"3DS", "CONS"}
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "tel.csv")

	ref := func() []byte {
		sink := telemetry.NewStreamSink()
		f, err := streamio.Create(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Attach(telemetry.FormatCSV, f); err != nil {
			t.Fatal(err)
		}
		cfg := streamTestConfig()
		cfg.TelemetrySink = sink
		prepareScenario(t, cfg, names, 0).mustRun(t, cycles)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()

	killSink := telemetry.NewStreamSink()
	killFile, err := streamio.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := killSink.Attach(telemetry.FormatCSV, killFile); err != nil {
		t.Fatal(err)
	}
	ckCfg := streamTestConfig()
	ckCfg.TelemetrySink = killSink
	ckCfg.CheckpointEvery = every
	ckCfg.CheckpointDir = dir
	ckCfg.FaultPlan = &faultinject.Plan{PanicAtCycle: 3000}
	killSim := prepareScenario(t, ckCfg, names, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not fire")
			}
		}()
		killSim.Run(context.Background(), cycles)
	}()
	// The dead process never closed anything; drop the handle like a crash
	// would and read the checkpoint it left behind.
	killFile.Close()
	ckpt, err := os.ReadFile(killSim.checkpointPath(2600))
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}

	rsSink := telemetry.NewStreamSink()
	rsFile, err := streamio.CreateResumable(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rsSink.Attach(telemetry.FormatCSV, rsFile); err != nil {
		t.Fatal(err)
	}
	rsCfg := streamTestConfig() // no FaultPlan: the resume must not re-die
	rsCfg.TelemetrySink = rsSink
	rsSim := prepareScenario(t, rsCfg, names, 0)
	if err := rsSim.RestoreCheckpoint(bytes.NewReader(ckpt)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rsSim.eng.Now() != 2600 {
		t.Fatalf("restored to cycle %d, want 2600", rsSim.eng.Now())
	}
	rsSim.mustRun(t, cycles)
	if err := rsSink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rsFile.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("killed-and-resumed stream differs from uninterrupted run (%d vs %d bytes)", len(got), len(ref))
	}
}

// TestTelemetrySinkConfigValidation pins the config contract: a sink without
// an epoch is rejected. That the sink never enters fingerprints or cache keys
// is TestKeyIgnoresRunOptions'.
func TestTelemetrySinkConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.TelemetrySink = telemetry.NewStreamSink()
	cfg.TelemetryEpoch = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("TelemetrySink without TelemetryEpoch validated")
	}
}
