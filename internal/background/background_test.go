package background

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// GroupOf returns the group containing point i, resolved through the
// dense labeling in O(1).
func (m *Model) GroupOf(i int) *Group {
	if i < 0 || i >= m.n {
		return nil
	}
	return m.groups[m.labels[i]]
}

// PointMean returns µᵢ for point i.
func (m *Model) PointMean(i int) mat.Vec {
	g := m.GroupOf(i)
	if g == nil {
		return nil
	}
	return g.Mu.Clone()
}

// PointCov returns Σᵢ for point i.
func (m *Model) PointCov(i int) *mat.Dense {
	g := m.GroupOf(i)
	if g == nil {
		return nil
	}
	return g.Sigma.Clone()
}

func newModel(t *testing.T, n, d int) *Model {
	t.Helper()
	mu := make(mat.Vec, d)
	sigma := mat.Eye(d)
	m, err := New(n, mu, sigma)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func unit(d, axis int) mat.Vec {
	w := make(mat.Vec, d)
	w[axis] = 1
	return w
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, mat.Vec{0}, mat.Eye(1)); err == nil {
		t.Fatal("n=0 should fail")
	}
	if _, err := New(5, mat.Vec{0, 0}, mat.Eye(3)); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	bad := mat.NewDense(2, 2)
	copy(bad.Data, []float64{1, 2, 2, 1})
	if _, err := New(5, mat.Vec{0, 0}, bad); err == nil {
		t.Fatal("non-SPD prior should fail")
	}
}

func TestLocationCommitEnforcesConstraint(t *testing.T) {
	m := newModel(t, 100, 2)
	ext := bitset.FromIndices(100, seq(0, 30))
	yhat := mat.Vec{2.5, -1}
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatalf("CommitLocation: %v", err)
	}
	mu, _, err := m.SubgroupMeanMarginal(ext)
	if err != nil {
		t.Fatal(err)
	}
	for j := range yhat {
		if math.Abs(mu[j]-yhat[j]) > 1e-9 {
			t.Fatalf("E[f_I] = %v, want %v", mu, yhat)
		}
	}
	// Outside points unchanged.
	outMu := m.PointMean(50)
	if outMu.Norm() > 1e-12 {
		t.Fatalf("outside mean changed: %v", outMu)
	}
	// Covariances untouched by a location update (Theorem 1).
	if d := m.PointCov(0).MaxAbsDiff(mat.Eye(2)); d > 1e-12 {
		t.Fatalf("location update changed covariance by %v", d)
	}
	if m.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", m.NumGroups())
	}
}

func TestLocationCommitGeneralCovariance(t *testing.T) {
	// Non-identity prior covariance: the general-form update must still
	// reach the target mean exactly.
	sigma := mat.NewDense(2, 2)
	copy(sigma.Data, []float64{2, 0.6, 0.6, 1})
	m, err := New(60, mat.Vec{1, 1}, sigma)
	if err != nil {
		t.Fatal(err)
	}
	ext := bitset.FromIndices(60, seq(10, 35))
	yhat := mat.Vec{-3, 4}
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatal(err)
	}
	mu, _, _ := m.SubgroupMeanMarginal(ext)
	if mu.Sub(yhat).Norm() > 1e-9 {
		t.Fatalf("subgroup mean %v, want %v", mu, yhat)
	}
}

func TestOverlappingLocationConstraintsCoordinateDescent(t *testing.T) {
	m := newModel(t, 100, 2)
	extA := bitset.FromIndices(100, seq(0, 50))
	extB := bitset.FromIndices(100, seq(30, 80)) // overlaps A on [30,50)
	ya := mat.Vec{1, 0}
	yb := mat.Vec{0, 1}
	if err := m.CommitLocation(extA, ya); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitLocation(extB, yb); err != nil {
		t.Fatal(err)
	}
	muA, _, _ := m.SubgroupMeanMarginal(extA)
	muB, _, _ := m.SubgroupMeanMarginal(extB)
	if muA.Sub(ya).Norm() > 1e-6 {
		t.Fatalf("constraint A violated after B: %v", muA)
	}
	if muB.Sub(yb).Norm() > 1e-6 {
		t.Fatalf("constraint B violated: %v", muB)
	}
	if m.LastSweeps < 2 {
		t.Fatalf("overlapping constraints should need >1 sweep, got %d", m.LastSweeps)
	}
	// Groups: [0,30), [30,50), [50,80), [80,100) = 4.
	if m.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d, want 4", m.NumGroups())
	}
	total := 0
	for _, g := range m.Groups() {
		total += g.Count
	}
	if total != 100 {
		t.Fatalf("group counts sum to %d", total)
	}
}

func TestSpreadCommitEnforcesConstraint(t *testing.T) {
	for _, vhat := range []float64{0.25, 1.0, 4.0} { // shrink, no-op-ish, grow
		m := newModel(t, 80, 2)
		ext := bitset.FromIndices(80, seq(0, 40))
		center := make(mat.Vec, 2) // prior mean is 0; center at 0
		w := unit(2, 0)
		if err := m.CommitSpread(ext, w, center, vhat); err != nil {
			t.Fatalf("CommitSpread(v=%v): %v", vhat, err)
		}
		got, err := m.ExpectedSpread(ext, w, center)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-vhat) > 1e-8 {
			t.Fatalf("E[g] = %v, want %v", got, vhat)
		}
		// Covariance stays SPD.
		if _, err := mat.NewCholesky(m.PointCov(0)); err != nil {
			t.Fatalf("covariance lost positive definiteness: %v", err)
		}
	}
}

func TestSpreadCommitShermanMorrison(t *testing.T) {
	// Theorem 2's covariance update must equal the rank-1 precision
	// update (Σ⁻¹ + λwwᵀ)⁻¹ for the recovered λ.
	m := newModel(t, 40, 3)
	ext := bitset.FromIndices(40, seq(0, 40))
	w := mat.Vec{1 / math.Sqrt(3), 1 / math.Sqrt(3), 1 / math.Sqrt(3)}
	center := make(mat.Vec, 3)
	vhat := 0.5
	if err := m.CommitSpread(ext, w, center, vhat); err != nil {
		t.Fatal(err)
	}
	sigmaNew := m.PointCov(0)
	// Recover λ from the new projected variance: s_new = s/(1+λs), s = 1.
	sNew := sigmaNew.QuadForm(w)
	lambda := (1 - sNew) / sNew
	prec := mat.Eye(3) // old Σ⁻¹
	prec.AddOuterScaled(lambda, w, w)
	c, err := mat.NewCholesky(prec)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		col := unit(3, j)
		c.SolveInto(col, col) // column j of the inverse
		for i, x := range col {
			if d := math.Abs(x - sigmaNew.At(i, j)); d > 1e-8 {
				t.Fatalf("Sherman–Morrison mismatch: %v", d)
			}
		}
	}
}

func TestSpreadAfterLocationTwoStep(t *testing.T) {
	// The paper's two-step flow: commit location (mean moves to ŷ_I),
	// then commit spread around that mean. Both must hold afterwards.
	m := newModel(t, 60, 2)
	ext := bitset.FromIndices(60, seq(0, 25))
	yhat := mat.Vec{3, -2}
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatal(err)
	}
	w := unit(2, 1)
	vhat := 0.1
	if err := m.CommitSpread(ext, w, yhat, vhat); err != nil {
		t.Fatal(err)
	}
	mu, _, _ := m.SubgroupMeanMarginal(ext)
	if mu.Sub(yhat).Norm() > 1e-8 {
		t.Fatalf("location constraint violated after spread: %v", mu)
	}
	got, _ := m.ExpectedSpread(ext, w, yhat)
	if math.Abs(got-vhat) > 1e-8 {
		t.Fatalf("spread constraint violated: %v", got)
	}
	if m.NumConstraints() != 2 {
		t.Fatalf("NumConstraints = %d", m.NumConstraints())
	}
}

func TestSpreadCommitValidation(t *testing.T) {
	m := newModel(t, 10, 2)
	ext := bitset.FromIndices(10, []int{1, 2})
	if err := m.CommitSpread(ext, mat.Vec{2, 0}, mat.Vec{0, 0}, 1); err == nil {
		t.Fatal("non-unit w should fail")
	}
	if err := m.CommitSpread(ext, unit(2, 0), mat.Vec{0, 0}, -1); err == nil {
		t.Fatal("negative variance should fail")
	}
	if err := m.CommitSpread(bitset.New(10), unit(2, 0), mat.Vec{0, 0}, 1); err == nil {
		t.Fatal("empty extension should fail")
	}
}

func TestSubgroupMeanMarginalMixesGroups(t *testing.T) {
	m := newModel(t, 100, 1)
	extA := bitset.FromIndices(100, seq(0, 50))
	if err := m.CommitLocation(extA, mat.Vec{10}); err != nil {
		t.Fatal(err)
	}
	// Query a straddling extension: half from the shifted group (mean 10),
	// half from the untouched group (mean 0).
	q := bitset.FromIndices(100, seq(25, 75))
	mu, cov, err := m.SubgroupMeanMarginal(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu[0]-5) > 1e-9 {
		t.Fatalf("mixed mean = %v, want 5", mu[0])
	}
	// Var of the mean of 50 iid unit-variance points is 1/50.
	if math.Abs(cov.At(0, 0)-1.0/50) > 1e-12 {
		t.Fatalf("cov of mean = %v, want %v", cov.At(0, 0), 1.0/50)
	}
}

func TestDistinctSigmaCholsFastPath(t *testing.T) {
	m := newModel(t, 30, 2)
	if _, ok, err := m.DistinctSigmaChols(); err != nil || !ok {
		t.Fatalf("fresh model should share Σ (ok=%v, err=%v)", ok, err)
	}
	ext := bitset.FromIndices(30, seq(0, 10))
	if err := m.CommitLocation(ext, mat.Vec{1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.DistinctSigmaChols(); !ok {
		t.Fatal("location commits must keep the shared-Σ fast path")
	}
	if err := m.CommitSpread(ext, unit(2, 0), mat.Vec{1, 0}, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.DistinctSigmaChols(); ok {
		t.Fatal("spread commit should break the shared-Σ fast path")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := newModel(t, 40, 2)
	ext := bitset.FromIndices(40, seq(0, 20))
	if err := m.CommitLocation(ext, mat.Vec{5, 5}); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := c.CommitLocation(bitset.FromIndices(40, seq(20, 40)), mat.Vec{-5, -5}); err != nil {
		t.Fatal(err)
	}
	if m.NumConstraints() != 1 || c.NumConstraints() != 2 {
		t.Fatal("clone shares constraint list")
	}
	if m.PointMean(30).Norm() > 1e-12 {
		t.Fatal("clone commit mutated the original model")
	}
}

func TestMonteCarloSpreadUpdate(t *testing.T) {
	// Simulate from the updated model and check the empirical E[g]
	// matches the committed value (validates Theorem 2 end to end).
	m := newModel(t, 50, 2)
	ext := bitset.FromIndices(50, seq(0, 50))
	w := mat.Vec{3.0 / 5, 4.0 / 5}
	center := mat.Vec{0, 0}
	vhat := 2.5
	if err := m.CommitSpread(ext, w, center, vhat); err != nil {
		t.Fatal(err)
	}
	g := m.Groups()[0]
	chol, err := mat.NewCholesky(g.Sigma)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const trials = 200000
	var sum float64
	l := chol.L
	for i := 0; i < trials; i++ {
		z0, z1 := rng.NormFloat64(), rng.NormFloat64()
		y0 := g.Mu[0] + l[0]*z0
		y1 := g.Mu[1] + l[2]*z0 + l[3]*z1
		p := (y0-center[0])*w[0] + (y1-center[1])*w[1]
		sum += p * p
	}
	got := sum / trials
	if math.Abs(got-vhat) > 0.05 {
		t.Fatalf("Monte Carlo E[g] = %v, want %v", got, vhat)
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
