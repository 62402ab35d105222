package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"masksim/internal/faultinject"
	"masksim/internal/telemetry"
)

// telemetryRun executes a small MASK pair with the collector enabled and
// returns the collected data. 6000 cycles at epoch 1000 → exactly 6 samples.
func telemetryRun(t *testing.T, cycles, epoch int64) (*Results, Config) {
	t.Helper()
	cfg := MASKConfig()
	cfg.Cores = 4
	cfg.WarpsPerCore = 16
	cfg.TelemetryEpoch = epoch
	res := tinyRun(t, cfg, []string{"3DS", "CONS"}, cycles)
	if res.Telemetry == nil {
		t.Fatal("TelemetryEpoch set but Results.Telemetry is nil")
	}
	return res, cfg
}

// telemetryExport runs the same pair streaming its telemetry in one format
// and returns the bytes written.
// columnSum sums the named column across all samples; counters telescope to
// their end-of-run totals.
func columnSum(d *telemetry.Data, name string) (float64, bool) {
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

func telemetryExport(t *testing.T, cycles, epoch int64, format telemetry.Format) []byte {
	t.Helper()
	cfg := MASKConfig()
	cfg.Cores = 4
	cfg.WarpsPerCore = 16
	cfg.TelemetryEpoch = epoch
	cfg.TelemetrySink = telemetry.NewStreamSink()
	var buf bytes.Buffer
	if err := cfg.TelemetrySink.Attach(format, &buf); err != nil {
		t.Fatal(err)
	}
	tinyRun(t, cfg, []string{"3DS", "CONS"}, cycles)
	if err := cfg.TelemetrySink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTelemetryEpochSampling(t *testing.T) {
	res, _ := telemetryRun(t, 6000, 1000)
	d := res.Telemetry
	if len(d.Samples) != 6 {
		t.Fatalf("6000 cycles at epoch 1000 produced %d samples, want 6", len(d.Samples))
	}
	miss := d.ColumnIndex("l2tlb/miss_rate")
	for i, s := range d.Samples {
		if want := int64(i+1) * 1000; s.Cycle != want {
			t.Fatalf("sample %d at cycle %d, want %d", i, s.Cycle, want)
		}
		if r := s.Values[miss]; r < 0 || r > 1 {
			t.Fatalf("cycle %d: l2tlb/miss_rate %g outside [0,1]", s.Cycle, r)
		}
	}
}

func TestTelemetryStallColumnsSumToCycleBudget(t *testing.T) {
	// 2500 cycles at epoch 1000 exercises the partial tail sample: the
	// counter columns must still telescope to exact end-of-run totals.
	res, cfg := telemetryRun(t, 2500, 1000)
	d := res.Telemetry
	if len(d.Samples) != 3 {
		t.Fatalf("2500 cycles at epoch 1000 produced %d samples, want 3 (2 full + 1 tail)", len(d.Samples))
	}
	for core := 0; core < cfg.Cores; core++ {
		var total float64
		for _, suffix := range []string{"issue", "tlb", "mem", "other"} {
			name := "core" + string(rune('0'+core)) + "/stall/" + suffix
			sum, ok := columnSum(d, name)
			if !ok {
				t.Fatalf("missing stall column %s", name)
			}
			total += sum
		}
		if total != float64(res.Cycles) {
			t.Fatalf("core %d stall columns sum to %v, want the cycle budget %d",
				core, total, res.Cycles)
		}
	}
}

func TestTelemetryCSVHasRequiredColumns(t *testing.T) {
	res, _ := telemetryRun(t, 4000, 1000)
	csv := string(telemetryExport(t, 4000, 1000, telemetry.FormatCSV))
	header := strings.SplitN(csv, "\n", 2)[0]
	for _, col := range []string{
		"cycle",
		"app0/l1tlb/hit_rate", "app1/l1tlb/hit_rate",
		"app0/l2tlb/hit_rate",
		"app0/tokens", "app1/tokens",
		"l2tlb/miss_rate",
		"dram/queued", "dram/golden", "dram/silver", "dram/normal",
		"dram/chan0/bank0/queued",
		"ptw/walk_lat_p50", "ptw/walk_lat_p99", "ptw/queue_depth",
		"core0/stall/issue", "core0/stall/tlb",
	} {
		if !strings.Contains(header, col) {
			t.Errorf("CSV header missing column %s", col)
		}
	}
	if n := len(strings.Split(strings.TrimSpace(csv), "\n")); n != 1+4 {
		t.Fatalf("CSV has %d lines, want header + 4 samples", n)
	}
	// Telemetry must actually observe traffic: the instruction counters sum
	// to the run's retired instructions.
	var want uint64
	for _, a := range res.Apps {
		want += a.Instructions
	}
	var got float64
	for app := 0; app < 2; app++ {
		sum, ok := columnSum(res.Telemetry, "app"+string(rune('0'+app))+"/instructions")
		if !ok {
			t.Fatalf("missing instruction column for app %d", app)
		}
		got += sum
	}
	if got != float64(want) {
		t.Fatalf("instruction columns sum to %v, want %d", got, want)
	}
}

func TestTelemetryChromeTraceValidates(t *testing.T) {
	trace := telemetryExport(t, 3000, 1000, telemetry.FormatChrome)
	n, err := telemetry.ValidateChromeTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("simulator-produced trace fails validation: %v", err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	s := string(trace)
	for _, want := range []string{`"ph":"M"`, `"ph":"C"`, `"process_name"`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestTelemetryDisabledByDefault(t *testing.T) {
	cfg := tinyConfig()
	res := tinyRun(t, cfg, []string{"3DS"}, 2000)
	if res.Telemetry != nil {
		t.Fatal("telemetry collected without TelemetryEpoch")
	}
}

func TestTelemetryRecordsFaultEvents(t *testing.T) {
	// A wedged page-table walk must surface both as a fault instant event
	// and (via the watchdog abort) as a watchdog.abort event.
	cfg := MASKConfig()
	cfg.Cores = 2
	cfg.WarpsPerCore = 8
	cfg.TelemetryEpoch = 500
	cfg.WatchdogCheckEvery = 500
	cfg.FaultPlan = &faultinject.Plan{WedgePTWAfter: 200}
	res, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, 200_000)
	if err == nil {
		t.Fatal("wedged run completed without abort")
	}
	if res == nil || res.Telemetry == nil {
		t.Fatal("aborted run returned no telemetry")
	}
	var sawWedge, sawAbort bool
	for _, ev := range res.Telemetry.Events {
		switch ev.Name {
		case "fault.wedge_walk":
			sawWedge = true
		case "watchdog.abort":
			sawAbort = true
			if ev.Args["stall_cycles"] == "" {
				t.Error("watchdog.abort event missing stall_cycles arg")
			}
		}
	}
	if !sawWedge || !sawAbort {
		t.Fatalf("events missing: wedge=%v abort=%v (%d events)", sawWedge, sawAbort, len(res.Telemetry.Events))
	}
}
