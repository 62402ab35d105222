package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"masksim/internal/telemetry"
)

// asMainEnv makes the test binary behave as maskbench itself, so the smoke
// test can drive the real parent/child process tree.
const asMainEnv = "MASKBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the tests read back.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readContract(t *testing.T) (contract, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c, raw
}

// TestBenchmarkJSONInSync: the checked-in contract is what spec.go declares
// (regenerate with maskbench -print-benchmark-json).
func TestBenchmarkJSONInSync(t *testing.T) {
	_, raw := readContract(t)
	if !bytes.Equal(raw, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `maskbench -print-benchmark-json > BENCHMARK.json`")
	}
}

// TestContractLimits checks BENCHMARK.json against the limits a benchmark
// contract must keep.
func TestContractLimits(t *testing.T) {
	c, raw := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(raw) > 64<<10 || c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("file size %d / run_seconds %d out of range", len(raw), c.RunSeconds)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range c.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range c.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range c.PerLayer {
		check(m.Name)
	}
	// The whole run set (4 + 22 per workload, two builds) must fit the cap
	// when a run costs the budget plus set-up, warm ops and process start.
	if total := (4 + 22*len(c.Workloads)) * (c.RunSeconds + 12); total > 3420-240 {
		t.Errorf("run set would take about %d s", total)
	}
}

// runSelf runs this test binary as maskbench and decodes its report.
func runSelf(t *testing.T, args ...string) report {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Dir = t.TempDir() // scratch files land here, not in the source tree
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("maskbench %v: %v\n%s", args, err, out.String())
	}
	var rep report
	if err := json.NewDecoder(&out).Decode(&rep); err != nil {
		t.Fatalf("maskbench %v: %v", args, err)
	}
	for i := range rep.Rows {
		if f := rep.Rows[i].TraceFile; f != "" {
			rep.Rows[i].TraceFile = filepath.Join(cmd.Dir, f)
		}
	}
	return rep
}

// TestQuickSmoke runs every workload at 1/50 scale through both passes and
// validates what comes out against BENCHMARK.json: every named metric with
// its unit, finite values, no failed op, no failed output check (which
// includes: the traced and the untraced pass agree on every exact counter).
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads twice")
	}
	c, _ := readContract(t)
	args := []string{"-quick", "-trace", "1"}
	if raceEnabled {
		args = []string{"-quick"}
	}
	rep := runSelf(t, args...)
	if len(rep.Rows) != len(c.Workloads) {
		t.Fatalf("%d rows for %d workloads", len(rep.Rows), len(c.Workloads))
	}
	for i, r := range rep.Rows {
		if r.Workload != c.Workloads[i].Name {
			t.Errorf("row %d is %s, want %s", i, r.Workload, c.Workloads[i].Name)
		}
		if !r.Correct || r.OpsFailed != 0 || len(r.Checks) != 0 || r.Ops < 1 {
			t.Errorf("%s: correct=%v ops=%d ops_failed=%d checks=%v", r.Workload, r.Correct, r.Ops, r.OpsFailed, r.Checks)
		}
		if len(r.ResultsSHA) != 64 {
			t.Errorf("%s: results_sha %q", r.Workload, r.ResultsSHA)
		}
		verify := func(kind string, specs []metricSpec, got map[string]value, positive bool) {
			if len(got) != len(specs) {
				t.Errorf("%s: %d %s metrics, contract names %d", r.Workload, len(got), kind, len(specs))
			}
			for _, m := range specs {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s missing", r.Workload, kind, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, contract says %q", r.Workload, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 || (positive && v.Value == 0):
					t.Errorf("%s: %s = %v", r.Workload, m.Name, v.Value)
				}
			}
		}
		verify("end-to-end", c.EndToEnd, r.EndToEnd, true)
		if raceEnabled {
			continue
		}
		verify("per-layer", c.PerLayer, r.PerLayer, false)

		f, err := os.Open(r.TraceFile)
		if err != nil {
			t.Errorf("%s: trace file: %v", r.Workload, err)
			continue
		}
		if n, err := telemetry.ValidateChromeTrace(f); err != nil || n < 2 {
			t.Errorf("%s: trace file holds %d events: %v", r.Workload, n, err)
		}
		f.Close()
	}
}
