package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random source
// (xorshift64star). Every component that needs randomness owns a Rand
// seeded from its configuration, so simulations replay identically.
// We do not use math/rand's global source anywhere in the simulator.
type Rand struct {
	state uint64
}

// NewRand returns a source seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift requires non-zero state.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a value in [0, n). n must be positive.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Poisson returns a Poisson-distributed count with rate lambda using
// Knuth's method for small lambda and a normal approximation above 500.
func (r *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		v := r.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
