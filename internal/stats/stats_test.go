package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); math.Abs(m-2.5) > 1e-15 {
		t.Fatalf("Mean = %v", m)
	}
	if v := Variance(xs); math.Abs(v-1.25) > 1e-15 {
		t.Fatalf("Variance = %v, want 1.25 (population)", v)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Fatal("empty input should give NaN")
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		w.Add(xs[i])
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-12 {
		t.Fatalf("Welford mean %v vs %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.Var()-Variance(xs)) > 1e-10 {
		t.Fatalf("Welford var %v vs %v", w.Var(), Variance(xs))
	}
	if w.N() != len(xs) {
		t.Fatalf("Welford N = %d", w.N())
	}
}

func TestMeanVecAndCovMat(t *testing.T) {
	// Three 2-D points; known mean and covariance.
	y := mat.NewDense(3, 2)
	copy(y.Data, []float64{0, 0, 2, 2, 4, 4})
	mu := MeanVec(y, nil)
	if mu[0] != 2 || mu[1] != 2 {
		t.Fatalf("MeanVec = %v", mu)
	}
	cov := CovMat(y, nil)
	// Var per axis = (4+0+4)/3 = 8/3; covariance identical.
	want := 8.0 / 3
	for _, v := range cov.Data {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("CovMat = %v, want all %v", cov.Data, want)
		}
	}
	// Subset of rows.
	mu2 := MeanVec(y, []int{0, 2})
	if mu2[0] != 2 || mu2[1] != 2 {
		t.Fatalf("MeanVec subset = %v", mu2)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{0, 10}, 30); math.Abs(got-3) > 1e-12 {
		t.Fatalf("interp percentile = %v, want 3", got)
	}
	// Input must not be modified.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Percentile modified its input: %v", in)
	}
}

func TestNormalPDFIntegratesToOne(t *testing.T) {
	var s float64
	const step = 0.01
	for x := -8.0; x <= 8.0; x += step {
		s += NormalPDF(x, 0, 1) * step
	}
	if math.Abs(s-1) > 1e-3 {
		t.Fatalf("normal pdf integral = %v", s)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x, 0, 1); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDigammaRecurrence(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x must hold for all x > 0.
	f := func(raw float64) bool {
		x := math.Abs(raw)
		if x < 1e-3 || x > 1e6 || math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		lhs := Digamma(x + 1)
		rhs := Digamma(x) + 1/x
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// ψ(1) = −γ (Euler–Mascheroni).
	if got := Digamma(1); math.Abs(got+0.5772156649015329) > 1e-10 {
		t.Fatalf("Digamma(1) = %v", got)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	k := NewKDE(xs, 0)
	var s float64
	const step = 0.02
	for x := -10.0; x <= 10.0; x += step {
		s += k.PDF(x) * step
	}
	if math.Abs(s-1) > 5e-3 {
		t.Fatalf("KDE integral = %v", s)
	}
	if k.h <= 0 {
		t.Fatal("Silverman bandwidth should be positive")
	}
}

func TestKDEGrid(t *testing.T) {
	k := NewKDE([]float64{0}, 1)
	xs, ds := k.Grid(-1, 1, 3)
	if len(xs) != 3 || xs[0] != -1 || xs[2] != 1 {
		t.Fatalf("grid xs = %v", xs)
	}
	if ds[1] < ds[0] || ds[1] < ds[2] {
		t.Fatalf("grid should peak at center: %v", ds)
	}
}

func TestECDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := ECDF(xs, 2.5); got != 0.5 {
		t.Fatalf("ECDF = %v", got)
	}
	if got := ECDF(xs, 0); got != 0 {
		t.Fatalf("ECDF below min = %v", got)
	}
	if got := ECDF(xs, 9); got != 1 {
		t.Fatalf("ECDF above max = %v", got)
	}
}

// Property: ECDF is monotone nondecreasing in x.
func TestECDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	grid := make([]float64, 100)
	for i := range grid {
		grid[i] = rng.NormFloat64() * 2
	}
	sort.Float64s(grid)
	prev := -1.0
	for _, x := range grid {
		v := ECDF(xs, x)
		if v < prev {
			t.Fatalf("ECDF decreased: %v after %v", v, prev)
		}
		prev = v
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-12 || v < lo-1e-12 || v > hi+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentilesMatchesSortedExactly: the partial-selection Percentiles
// must be bit-identical to sort + PercentileSorted — split points feed
// every condition language, so any drift would silently change every
// search result. Exercised over continuous, heavily tied (binary/ordinal)
// and tiny inputs. One key scratch is shared by every trial, as a
// language build shares it across columns: it arrives dirty with the
// previous trial's keys and is sometimes shorter than 2n (Percentiles
// must grow it) and sometimes longer (only its prefix may be read).
func TestPercentilesMatchesSortedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch []uint64
	grown := 0
	for trial := 0; trial < 240; trial++ {
		n := 1 + rng.Intn(400)
		if trial%8 >= 6 {
			// Large columns drive the radix selection through multi-round
			// descents and per-bucket recursion, not just the small-range
			// insertion sort.
			n = 1500 + rng.Intn(3000)
		}
		xs := make([]float64, n)
		switch trial % 4 {
		case 0: // continuous
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
		case 1: // binary (mammals-style presence/absence)
			for i := range xs {
				xs[i] = float64(rng.Intn(2))
			}
		case 2: // small ordinal alphabet
			for i := range xs {
				xs[i] = float64(rng.Intn(5))
			}
		case 3: // continuous with NaNs (sorted first, like sort.Float64s),
			// normalized [0,1) values (shared high key bits), and the
			// signed-zero / infinity edge keys
			for i := range xs {
				switch rng.Intn(10) {
				case 0:
					xs[i] = math.NaN()
				case 1:
					xs[i] = math.Inf(1 - 2*rng.Intn(2))
				case 2:
					xs[i] = 0 * float64(1-2*rng.Intn(2)) // ±0
				default:
					xs[i] = rng.Float64()
				}
			}
		}
		var ps []float64
		for k := 1 + rng.Intn(6); k > 0; k-- {
			ps = append(ps, rng.Float64()*100)
		}
		ps = append(ps, 0, 100, 50)
		if trial%5 == 0 {
			// Shrink the scratch below 2n so Percentiles must grow it.
			scratch = scratch[:min(len(scratch), rng.Intn(2*n))]
		}
		short := len(scratch) < 2*n
		got := Percentiles(xs, ps, &scratch)
		if short {
			grown++
		}
		if len(scratch) < 2*n {
			t.Fatalf("trial %d: scratch len %d after Percentiles, want >= %d", trial, len(scratch), 2*n)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for i, p := range ps {
			want := PercentileSorted(sorted, p)
			if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				t.Fatalf("trial %d n=%d p=%v: %v != %v", trial, n, p, got[i], want)
			}
		}
	}
	if grown == 0 || grown == 240 {
		t.Fatalf("scratch grown in %d of 240 trials; want both short and long scratches exercised", grown)
	}
}

func BenchmarkCovMat16(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	y := mat.NewDense(1000, 16)
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CovMat(y, nil)
	}
}
