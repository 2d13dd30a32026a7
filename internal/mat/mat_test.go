package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Mul returns m·b as a new matrix. m.C must equal b.R. It is the
// tests' reference product: the library itself never multiplies two
// matrices.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.C != b.R {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %d vs %d", m.C, b.R))
	}
	out := NewDense(m.R, b.C)
	for i := 0; i < m.R; i++ {
		mrow := m.Data[i*m.C : (i+1)*m.C]
		orow := out.Data[i*out.C : (i+1)*out.C]
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.C : (k+1)*b.C]
			for j, x := range brow {
				orow[j] += a * x
			}
		}
	}
	return out
}

// MulVec returns m·v as a new vector. len(v) must equal m.C. The
// library itself multiplies into caller scratch (MulVecInto).
func (m *Dense) MulVec(v Vec) Vec {
	return m.MulVecInto(make(Vec, m.R), v)
}

// Inverse returns A⁻¹ as a new dense matrix.
func (c *Cholesky) Inverse() *Dense {
	n := c.N
	inv := NewDense(n, n)
	e := make(Vec, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := c.SolveInto(make(Vec, n), e)
		for i := 0; i < n; i++ {
			inv.Data[i*n+j] = col[i]
		}
	}
	inv.Symmetrize()
	return inv
}

// diag returns a square matrix with d on the diagonal.
func diag(d []float64) *Dense {
	n := len(d)
	m := NewDense(n, n)
	for i, x := range d {
		m.Data[i*n+i] = x
	}
	return m
}

// randSPD builds a random symmetric positive definite n×n matrix
// A = BᵀB + n·I, which is comfortably well-conditioned.
func randSPD(rng *rand.Rand, n int) *Dense {
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += float64(n)
	}
	return a
}

func randVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestVecDot(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, -5, 6}
	if got, want := v.Dot(w), 1.0*4-2*5+3*6; got != want {
		t.Fatalf("Dot = %v, want %v", got, want)
	}
}

func TestVecNorm(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Norm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestVecNormalize(t *testing.T) {
	v := Vec{3, 4}
	v.Normalize()
	if math.Abs(v.Norm()-1) > 1e-15 {
		t.Fatalf("Normalize: norm = %v, want 1", v.Norm())
	}
	z := Vec{0, 0}
	z.Normalize() // must not panic or produce NaN
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Normalize zero vector changed it: %v", z)
	}
}

func TestVecAddScaledSub(t *testing.T) {
	v := Vec{1, 2}
	v.AddScaled(2, Vec{10, 20})
	if v[0] != 21 || v[1] != 42 {
		t.Fatalf("AddScaled = %v", v)
	}
	d := v.Sub(Vec{1, 2})
	if d[0] != 20 || d[1] != 40 {
		t.Fatalf("Sub = %v", d)
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec(Vec{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestDenseMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randSPD(rng, 5)
	p := a.Mul(Eye(5))
	if a.MaxAbsDiff(p) > 1e-14 {
		t.Fatalf("A·I differs from A by %v", a.MaxAbsDiff(p))
	}
}

func TestDenseTranspose(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if mt.R != 3 || mt.C != 2 {
		t.Fatalf("T dims = %dx%d", mt.R, mt.C)
	}
	if mt.At(0, 1) != 4 || mt.At(2, 0) != 3 {
		t.Fatalf("T content wrong: %v", mt.Data)
	}
}

func TestQuadFormMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		a := randSPD(rng, n)
		w := randVec(rng, n)
		want := w.Dot(a.MulVec(w))
		got := a.QuadForm(w)
		if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("QuadForm = %v, want %v", got, want)
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := Eye(2)
	m.AddOuterScaled(3, Vec{1, 2}, Vec{4, 5})
	want := []float64{1 + 12, 15, 24, 1 + 30}
	for i, x := range want {
		if math.Abs(m.Data[i]-x) > 1e-15 {
			t.Fatalf("AddOuterScaled data = %v, want %v", m.Data, want)
		}
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("NewCholesky: %v", err)
		}
		// Rebuild L·Lᵀ and compare with A.
		l := NewDense(n, n)
		copy(l.Data, c.L)
		rec := l.Mul(l.T())
		if d := rec.MaxAbsDiff(a); d > 1e-9 {
			t.Fatalf("n=%d: L·Lᵀ differs from A by %v", n, d)
		}
	}
}

func TestCholeskySolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		a := randSPD(rng, n)
		b := randVec(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("NewCholesky: %v", err)
		}
		x := c.SolveInto(make(Vec, n), b)
		r := a.MulVec(x).Sub(b)
		if r.Norm() > 1e-9*(1+b.Norm()) {
			t.Fatalf("residual norm %v too large", r.Norm())
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected ErrNotSPD for indefinite matrix")
	}
}

func TestInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("NewCholesky: %v", err)
		}
		inv := c.Inverse()
		if d := a.Mul(inv).MaxAbsDiff(Eye(n)); d > 1e-8 {
			t.Fatalf("A·A⁻¹ differs from I by %v", d)
		}
	}
}

func TestLogDetMatchesEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(7)
		a := randSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("NewCholesky: %v", err)
		}
		ld := c.LogDet()
		vals, _, err := SymEig(a)
		if err != nil {
			t.Fatalf("SymEig: %v", err)
		}
		var want float64
		for _, v := range vals {
			want += math.Log(v)
		}
		if math.Abs(ld-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("LogDet = %v, eig sum = %v", ld, want)
		}
	}
}

func TestSymEigReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		vals, vecs, err := SymEig(a)
		if err != nil {
			t.Fatalf("SymEig: %v", err)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
		// V·diag(vals)·Vᵀ == A.
		rec := vecs.Mul(diag(vals)).Mul(vecs.T())
		if d := rec.MaxAbsDiff(a); d > 1e-8 {
			t.Fatalf("n=%d: V·Λ·Vᵀ differs from A by %v", n, d)
		}
		// Orthonormal columns.
		if d := vecs.T().Mul(vecs).MaxAbsDiff(Eye(n)); d > 1e-9 {
			t.Fatalf("VᵀV differs from I by %v", d)
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := diag([]float64{1, 5, 3})
	vals, _, err := SymEig(a)
	if err != nil {
		t.Fatalf("SymEig: %v", err)
	}
	want := []float64{5, 3, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

// Property: for any vector, solving against the identity returns the
// vector itself; quadratic form against identity is the squared norm.
func TestIdentityProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		v := make(Vec, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e8 {
				return true
			}
			v[i] = x
		}
		id := Eye(len(v))
		c, err := NewCholesky(id)
		if err != nil {
			return false
		}
		x := c.SolveInto(make(Vec, len(v)), v)
		for i := range v {
			if math.Abs(x[i]-v[i]) > 1e-9*(1+math.Abs(v[i])) {
				return false
			}
		}
		q := id.QuadForm(v)
		return math.Abs(q-v.Dot(v)) <= 1e-9*(1+v.Dot(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky solve inverts MulVec on random SPD systems.
func TestSolveInvertsMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		a := randSPD(r, n)
		x := randVec(rng, n)
		b := a.MulVec(x)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		got := c.SolveInto(make(Vec, n), b)
		return got.Sub(x).Norm() <= 1e-7*(1+x.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCholesky16(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a := randSPD(rng, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky124(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	a := randSPD(rng, 124)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEig16(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}
