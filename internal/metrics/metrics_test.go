package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWeightedSpeedup(t *testing.T) {
	// Two apps at exactly their alone IPC: WS = 2.
	if ws := WeightedSpeedup([]float64{2, 3}, []float64{2, 3}); !close(ws, 2) {
		t.Fatalf("WS=%v, want 2", ws)
	}
	// Halved performance: WS = 1.
	if ws := WeightedSpeedup([]float64{1, 1.5}, []float64{2, 3}); !close(ws, 1) {
		t.Fatalf("WS=%v, want 1", ws)
	}
}

func TestSpeedupMetricsUndefinedInputs(t *testing.T) {
	type fn struct {
		name string
		f    func(shared, alone []float64) float64
	}
	fns := []fn{
		{"WeightedSpeedup", WeightedSpeedup},
		{"MaxSlowdown", MaxSlowdown},
	}
	cases := []struct {
		name          string
		shared, alone []float64
	}{
		{"empty", nil, nil},
		{"length mismatch", []float64{1, 2}, []float64{1}},
		{"zero alone IPC", []float64{1, 1}, []float64{0, 2}},
		{"negative alone IPC", []float64{1, 1}, []float64{-1, 2}},
	}
	for _, fn := range fns {
		for _, c := range cases {
			if v := fn.f(c.shared, c.alone); !math.IsNaN(v) {
				t.Errorf("%s(%s) = %v, want NaN", fn.name, c.name, v)
			}
		}
	}
}

func TestSpeedupMetricsZeroSharedIPC(t *testing.T) {
	shared, alone := []float64{0, 1}, []float64{2, 2}
	// A fully starved app contributes zero speedup but is not skipped.
	if ws := WeightedSpeedup(shared, alone); !close(ws, 0.5) {
		t.Errorf("WS=%v, want 0.5", ws)
	}
	// Its slowdown is unbounded: unfairness is +Inf, not the other app's 2x.
	if u := MaxSlowdown(shared, alone); !math.IsInf(u, 1) {
		t.Errorf("unfairness=%v, want +Inf", u)
	}
}

func TestIPCThroughput(t *testing.T) {
	if v := IPCThroughput([]float64{1, 2, 3}); !close(v, 6) {
		t.Fatalf("throughput=%v", v)
	}
}

func TestMaxSlowdown(t *testing.T) {
	// App 2 slowed 3x, app 1 slowed 2x: unfairness = 3.
	if u := MaxSlowdown([]float64{1, 1}, []float64{2, 3}); !close(u, 3) {
		t.Fatalf("unfairness=%v, want 3", u)
	}
}

func TestMeanAndMinMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := Mean(xs); !close(m, 2) {
		t.Fatalf("mean=%v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("mean(nil) != 0")
	}
}

// Property: for well-formed inputs (equal non-zero lengths, positive alone
// IPCs), weighted speedup is non-negative and never NaN.
func TestWeightedSpeedupBounds(t *testing.T) {
	f := func(shared, alone []float64) bool {
		n := len(shared)
		if len(alone) < n {
			n = len(alone)
		}
		if n == 0 {
			return math.IsNaN(WeightedSpeedup(shared[:0], alone[:0]))
		}
		for i := 0; i < n; i++ {
			shared[i] = math.Abs(shared[i])
			alone[i] = math.Abs(alone[i]) + 1e-6
		}
		ws := WeightedSpeedup(shared[:n], alone[:n])
		return ws >= 0 && !math.IsNaN(ws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
