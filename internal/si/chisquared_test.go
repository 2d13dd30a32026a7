package si

import (
	"math"
	"testing"
)

// The χ² distribution functions below are the tests' references for
// the spread IC: TestSpreadICExactChiSquaredCase compares against the
// exact log density, and the noncentral fit's CDF (noncentral_test.go)
// is P(χ²_m ≤ u). The search itself needs neither.

// GammaIncP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a,x)/Γ(a) for a > 0, x ≥ 0, using the series expansion for
// x < a+1 and the continued fraction otherwise (Numerical Recipes style).
func GammaIncP(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaContinuedFraction(a, x)
	}
}

func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < 500; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquaredCDF returns P(X ≤ x) for X ~ χ²_k.
func ChiSquaredCDF(x, k float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaIncP(k/2, x/2)
}

// ChiSquaredLogPDF returns the log density of χ²_k at x (−Inf for x ≤ 0).
func ChiSquaredLogPDF(x, k float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(k / 2)
	return (k/2-1)*math.Log(x) - x/2 - (k/2)*math.Ln2 - lg
}

func TestChiSquaredCDFKnownValues(t *testing.T) {
	// Classic table values.
	cases := []struct{ x, k, want float64 }{
		{3.841458820694124, 1, 0.95},
		{5.991464547107979, 2, 0.95},
		{0, 3, 0},
		{2, 2, 1 - math.Exp(-1)}, // χ²₂ is Exp(1/2)
	}
	for _, c := range cases {
		if got := ChiSquaredCDF(c.x, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("ChiSquaredCDF(%v,%v) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
}

func TestChiSquaredLogPDFIntegratesToCDF(t *testing.T) {
	// ∫_a^b pdf must equal CDF(b) − CDF(a); midpoint rule avoids the
	// integrable singularity of χ²₁ at 0.
	for _, k := range []float64{1, 2, 5, 10} {
		const a, b = 0.5, 20.0
		const n = 20000
		step := (b - a) / n
		var s float64
		for i := 0; i < n; i++ {
			x := a + (float64(i)+0.5)*step
			s += math.Exp(ChiSquaredLogPDF(x, k)) * step
		}
		want := ChiSquaredCDF(b, k) - ChiSquaredCDF(a, k)
		if math.Abs(s-want) > 1e-6 {
			t.Fatalf("χ²_%v: ∫pdf = %v, CDF diff = %v", k, s, want)
		}
	}
	if !math.IsInf(ChiSquaredLogPDF(-1, 3), -1) {
		t.Fatal("log pdf at negative x should be -Inf")
	}
}
