package rng

import (
	"testing"
	"testing/quick"
)

// seeded returns a Source seeded with seed.
func seeded(seed uint64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

func TestDeterminism(t *testing.T) {
	a := seeded(42)
	b := seeded(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := seeded(1)
	b := seeded(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := seeded(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed generator appears stuck")
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		n = n%10000 + 1
		s := seeded(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	seeded(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := seeded(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := seeded(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := seeded(3)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := seeded(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) frequency %v", frac)
	}
}

func TestIntnDistribution(t *testing.T) {
	s := seeded(13)
	const buckets = 8
	counts := make([]int, buckets)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.15 {
			t.Fatalf("bucket %d has frequency %v (want ~0.125)", b, frac)
		}
	}
}
