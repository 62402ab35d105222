// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Simulations must be reproducible byte-for-byte: every source of randomness
// (workload address streams, allocator scrambling, tie-breaking) draws from an
// explicitly seeded Source, never from math/rand's global state or the clock.
// The generator is xorshift64* (Vigna, 2014), which is statistically strong
// enough for workload synthesis and costs a handful of instructions per draw.
package rng

// Source is a deterministic xorshift64* generator, usually embedded by value
// in a larger structure. The zero value is invalid; call Seed first, which
// maps any seed (including 0) onto a valid non-zero state.
type Source struct {
	state uint64
}

// Seed (re)initialises s with seed. Distinct seeds yield decorrelated
// streams; a zero seed is remapped so the generator never sticks at zero.
func (s *Source) Seed(seed uint64) {
	s.state = seed
	if s.state == 0 {
		s.state = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	// Warm up so that near-identical small seeds diverge immediately.
	s.Uint64()
	s.Uint64()
}

// State returns the generator's internal state for checkpointing.
func (s *Source) State() uint64 { return s.state }

// SetState restores a state previously returned by State. A zero state is
// remapped like a zero seed so the generator can never stick.
func (s *Source) SetState(state uint64) {
	if state == 0 {
		state = 0x9E3779B97F4A7C15
	}
	s.state = state
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits scaled into [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
