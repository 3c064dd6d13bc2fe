// Package rng provides a small deterministic pseudo-random number
// generator used by all simulations and experiments in this repository.
//
// The generator is splitmix64 (Steele, Lea & Flood): a tiny, fast,
// well-distributed 64-bit generator whose output stream depends only on
// the seed, independent of Go version or platform. Determinism matters
// here because every experiment in EXPERIMENTS.md must be reproducible
// from its recorded seed.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64-bit value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// Use the high 53 bits for a uniformly distributed mantissa.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics for programmer errors.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal variate via Box–Muller.
func (s *Source) Norm() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		v := s.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Poisson returns a Poisson variate with mean lambda.
//
// For small lambda it uses Knuth's product method; for large lambda it
// uses the normal approximation with continuity correction, which is
// accurate enough for the node-count sampling done here and avoids
// underflow of exp(−lambda). A lambda that is not positive, NaN
// included, gives 0, and the variate saturates at math.MaxInt: a lambda
// of maxInt or more, +Inf included, gives it without a draw.
func (s *Source) Poisson(lambda float64) int {
	if !(lambda > 0) {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	if lambda >= maxInt {
		return math.MaxInt
	}
	k := math.Round(lambda + math.Sqrt(lambda)*s.Norm())
	switch {
	case k < 0:
		return 0
	case k >= maxInt:
		return math.MaxInt
	}
	return int(k)
}

// maxInt is math.MaxInt rounded to a float64: 2⁶³ where an int has 64
// bits. Every whole float64 in [0, maxInt) fits an int.
const maxInt = float64(math.MaxInt)

// Exp returns an exponential variate with the given mean.
func (s *Source) Exp(mean float64) float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -mean * math.Log(u)
		}
	}
}

// InDisk returns a uniform point in the disk of the given radius
// centered at the origin, as (x, y).
func (s *Source) InDisk(radius float64) (x, y float64) {
	r := radius * math.Sqrt(s.Float64())
	theta := s.Range(0, 2*math.Pi)
	return r * math.Cos(theta), r * math.Sin(theta)
}

// Fork returns a new Source whose stream is derived from, but
// independent of, this one. Useful for giving each subsystem its own
// stream so adding draws in one place does not perturb another.
func (s *Source) Fork() *Source {
	return New(s.Uint64() ^ 0xda3e39cb94b95bdb)
}
