package randx

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestGammaMoments(t *testing.T) {
	src := New(1)
	for _, k := range []float64{0.5, 1, 2.5, 8} {
		var w stats.Welford
		for i := 0; i < 40000; i++ {
			w.Add(src.Gamma(k))
		}
		// Gamma(k, 1): mean k, variance k.
		if math.Abs(w.Mean()-k) > 0.08*k+0.02 {
			t.Fatalf("Gamma(%v) mean = %v", k, w.Mean())
		}
		if math.Abs(w.Var()-k) > 0.15*k+0.05 {
			t.Fatalf("Gamma(%v) var = %v", k, w.Var())
		}
	}
}

func TestBetaMoments(t *testing.T) {
	src := New(2)
	a, b := 2.0, 5.0
	var w stats.Welford
	for i := 0; i < 40000; i++ {
		x := src.Beta(a, b)
		if x < 0 || x > 1 {
			t.Fatalf("Beta sample %v outside [0,1]", x)
		}
		w.Add(x)
	}
	wantMean := a / (a + b)
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	if math.Abs(w.Mean()-wantMean) > 0.01 {
		t.Fatalf("Beta mean = %v, want %v", w.Mean(), wantMean)
	}
	if math.Abs(w.Var()-wantVar) > 0.005 {
		t.Fatalf("Beta var = %v, want %v", w.Var(), wantVar)
	}
}

func TestBernoulli(t *testing.T) {
	src := New(3)
	n, ones := 20000, 0
	for i := 0; i < n; i++ {
		ones += src.Bernoulli(0.3)
	}
	p := float64(ones) / float64(n)
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", p)
	}
}
