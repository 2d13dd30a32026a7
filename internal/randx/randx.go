// Package randx provides seeded random samplers used by the dataset
// replica generators: normals, Gamma (Marsaglia–Tsang), Beta and
// Bernoulli.
//
// Everything is deterministic given the seed of the wrapped *rand.Rand,
// so the experiments, examples and benchmarks all agree on the data.
package randx

import (
	"math"
	"math/rand"
)

// Source wraps a math/rand generator with the distribution samplers this
// project needs beyond the standard library.
type Source struct {
	*rand.Rand
}

// New returns a deterministic Source for the given seed.
func New(seed int64) *Source {
	return &Source{Rand: rand.New(rand.NewSource(seed))}
}

// Normal samples N(mu, sigma²).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.NormFloat64()
}

// Bernoulli samples {0,1} with success probability p.
func (s *Source) Bernoulli(p float64) int {
	if s.Float64() < p {
		return 1
	}
	return 0
}

// Gamma samples the Gamma(shape k, scale θ=1) distribution with the
// Marsaglia–Tsang squeeze method; for k < 1 the boosting trick
// X = Gamma(k+1)·U^(1/k) is applied.
func (s *Source) Gamma(k float64) float64 {
	if k <= 0 {
		panic("randx: Gamma needs shape > 0")
	}
	if k < 1 {
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.Gamma(k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = s.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta samples the Beta(a, b) distribution via two Gamma draws.
func (s *Source) Beta(a, b float64) float64 {
	x := s.Gamma(a)
	y := s.Gamma(b)
	return x / (x + y)
}

// Perm returns a random permutation of [0, n), deterministic in the seed.
func (s *Source) Perm(n int) []int { return s.Rand.Perm(n) }
