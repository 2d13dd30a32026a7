package si

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/mat"
)

func newModel(t *testing.T, n, d int) *background.Model {
	t.Helper()
	m, err := background.New(n, make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestDL(t *testing.T) {
	p := Params{Gamma: 0.5, Eta: 1}
	if got := p.DL(1, false); got != 1.5 {
		t.Fatalf("DL(1,loc) = %v", got)
	}
	if got := p.DL(2, true); got != 3 {
		t.Fatalf("DL(2,spread) = %v", got)
	}
	if d := Default(); d.Gamma != 0.1 || d.Eta != 1 {
		t.Fatalf("Default = %+v", d)
	}
}

func TestLocationICClosedForm(t *testing.T) {
	// Standard-normal prior, subgroup of k points with observed mean δ:
	// f_I ~ N(0, I/k), so IC = (d/2)·log(2π/k·…) + k·|δ|²/2 exactly.
	const n, k, d = 100, 25, 2
	m := newModel(t, n, d)
	ext := bitset.FromIndices(n, seq(0, k))
	yhat := mat.Vec{0.4, -0.3}
	ic, err := LocationIC(m, ext, yhat)
	if err != nil {
		t.Fatal(err)
	}
	mahal := float64(k) * (0.4*0.4 + 0.3*0.3)
	want := 0.5*(float64(d)*math.Log(2*math.Pi)-float64(d)*math.Log(k)) + mahal/2
	if math.Abs(ic-want) > 1e-10 {
		t.Fatalf("IC = %v, want %v", ic, want)
	}
}

func TestLocationICGrowsWithCoverageAndDisplacement(t *testing.T) {
	const n = 200
	m := newModel(t, n, 1)
	icSmall, _ := LocationIC(m, bitset.FromIndices(n, seq(0, 10)), mat.Vec{1})
	icLarge, _ := LocationIC(m, bitset.FromIndices(n, seq(0, 100)), mat.Vec{1})
	if icLarge <= icSmall {
		t.Fatalf("IC should grow with coverage: %v vs %v", icSmall, icLarge)
	}
	icNear, _ := LocationIC(m, bitset.FromIndices(n, seq(0, 50)), mat.Vec{0.1})
	icFar, _ := LocationIC(m, bitset.FromIndices(n, seq(0, 50)), mat.Vec{2})
	if icFar <= icNear {
		t.Fatalf("IC should grow with displacement: %v vs %v", icNear, icFar)
	}
}

func TestLocationICDropsAfterCommit(t *testing.T) {
	// The core iterative-mining property (Table I): once a pattern is
	// committed, its IC collapses to the no-surprise floor.
	const n = 100
	m := newModel(t, n, 2)
	ext := bitset.FromIndices(n, seq(0, 40))
	yhat := mat.Vec{2, 0}
	before, err := LocationIC(m, ext, yhat)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatal(err)
	}
	after, err := LocationIC(m, ext, yhat)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("IC did not drop after commit: %v -> %v", before, after)
	}
	// After the commit the Mahalanobis term is zero, leaving only the
	// log-normalization constant.
	want := 0.5 * (2*math.Log(2*math.Pi) - 2*math.Log(40))
	if math.Abs(after-want) > 1e-9 {
		t.Fatalf("post-commit IC = %v, want %v", after, want)
	}
}

func TestLocationSIIntentionEquivalence(t *testing.T) {
	// Identical extensions must have identical IC; SI then differs only
	// through DL — the Table I consistency property.
	const n = 80
	m := newModel(t, n, 1)
	ext := bitset.FromIndices(n, seq(0, 30))
	p := Params{Gamma: 0.5, Eta: 1}
	si1, ic1, err := LocationSI(m, ext, mat.Vec{1.5}, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	si2, ic2, err := LocationSI(m, ext, mat.Vec{1.5}, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if ic1 != ic2 {
		t.Fatalf("IC depends on intention size: %v vs %v", ic1, ic2)
	}
	if math.Abs(si1*1.5-si2*2.0) > 1e-10 {
		t.Fatalf("SI·DL mismatch: %v vs %v", si1*1.5, si2*2.0)
	}
}

// groupStats describes, for one parameter group intersecting an
// extension, the quantities the spread-pattern IC needs.
type groupStats struct {
	Count int     // points of the group inside the extension
	S     float64 // wᵀ·Σ_g·w
}

// spreadStats returns, for every group intersecting ext, its count
// inside ext and its projected variance wᵀΣw along the direction w.
func spreadStats(m background.Reader, ext *bitset.Set, w mat.Vec) []groupStats {
	counts := m.CountByGroup(ext, nil)
	var gs []groupStats
	for gi, g := range m.Groups() {
		if counts[gi] > 0 {
			gs = append(gs, groupStats{Count: int(counts[gi]), S: g.Sigma.QuadForm(w)})
		}
	}
	return gs
}

// Moments computes the approximation coefficients from the per-group
// spread statistics: with aᵢ = wᵀΣᵢw/|I| (constant within a group),
//
//	α = A3/A2,  β = A1 − A2²/A3,  m = A2³/A3²,  Aₖ = Σ_{i∈I} aᵢᵏ.
func Moments(gs []groupStats, total int) SpreadMoments {
	inv := 1 / float64(total)
	var a1, a2, a3 float64
	for _, g := range gs {
		a := g.S * inv
		c := float64(g.Count)
		a1 += c * a
		a2 += c * a * a
		a3 += c * a * a * a
	}
	return MomentsFromSums(a1, a2, a3)
}

// SpreadIC computes the IC of a spread pattern for direction w and
// observed variance ghat, from the model's per-group spread statistics
// and the central three-moment fit (Eq. 18–19). The search scores
// spread patterns through spreadopt's moment sums; the tests check the
// IC formula in this direct form.
func SpreadIC(m background.Reader, ext *bitset.Set, w mat.Vec, ghat float64) (float64, error) {
	cnt := ext.Count()
	if cnt == 0 {
		return 0, background.ErrNoPoints
	}
	return SpreadICFromMoments(Moments(spreadStats(m, ext, w), cnt), ghat), nil
}

func TestSpreadICExactChiSquaredCase(t *testing.T) {
	// When all aᵢ are equal (single group), g = a·χ²_m exactly with
	// m = |I|, so IC must equal −log pdf = −[logpdf_χ²(ĝ/a, m) − log a].
	const n, k = 60, 20
	m := newModel(t, n, 2)
	ext := bitset.FromIndices(n, seq(0, k))
	w := mat.Vec{1, 0}
	for _, ghat := range []float64{0.3, 1.0, 2.7} {
		ic, err := SpreadIC(m, ext, w, ghat)
		if err != nil {
			t.Fatal(err)
		}
		a := 1.0 / k // wᵀΣw/|I| with Σ = I
		want := -(ChiSquaredLogPDF(ghat/a, k) - math.Log(a))
		if math.Abs(ic-want) > 1e-9 {
			t.Fatalf("ghat=%v: IC = %v, want exact χ² value %v", ghat, ic, want)
		}
	}
}

func TestSpreadMomentsEqualCase(t *testing.T) {
	gs := []groupStats{{Count: 10, S: 2.0}}
	sm := Moments(gs, 10)
	// a = 2/10 = 0.2 ⇒ α = 0.2, β = 0, m = 10.
	if math.Abs(sm.Alpha-0.2) > 1e-12 || math.Abs(sm.Beta) > 1e-12 ||
		math.Abs(sm.M-10) > 1e-9 {
		t.Fatalf("moments = %+v", sm)
	}
}

func TestSpreadMomentsMatchTrueMoments(t *testing.T) {
	// The three-moment fit must reproduce mean and variance of the true
	// mixture: E[g] = A1, Var[g] = 2·A2.
	gs := []groupStats{
		{Count: 5, S: 1.0},
		{Count: 15, S: 3.0},
	}
	total := 20
	sm := Moments(gs, total)
	mean := sm.Alpha*sm.M + sm.Beta
	variance := 2 * sm.Alpha * sm.Alpha * sm.M
	if math.Abs(mean-sm.A1) > 1e-12 {
		t.Fatalf("approx mean %v != A1 %v", mean, sm.A1)
	}
	if math.Abs(variance-2*sm.A2) > 1e-12 {
		t.Fatalf("approx var %v != 2·A2 %v", variance, 2*sm.A2)
	}
}

func TestSpreadICDropsAfterCommit(t *testing.T) {
	const n, k = 80, 30
	m := newModel(t, n, 2)
	ext := bitset.FromIndices(n, seq(0, k))
	w := mat.Vec{0, 1}
	center := mat.Vec{0, 0}
	ghat := 0.2 // much smaller variance than the expected 1
	before, err := SpreadIC(m, ext, w, ghat)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CommitSpread(ext, w, center, ghat); err != nil {
		t.Fatal(err)
	}
	after, err := SpreadIC(m, ext, w, ghat)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("spread IC did not drop after commit: %v -> %v", before, after)
	}
}

func TestSpreadICClampsOutsideSupport(t *testing.T) {
	gs := []groupStats{
		{Count: 5, S: 1.0},
		{Count: 15, S: 3.0},
	}
	sm := Moments(gs, 20)
	if sm.Beta <= 0 {
		t.Fatalf("test needs positive β, got %v", sm.Beta)
	}
	ic := SpreadICFromMoments(sm, sm.Beta/2) // below the support start
	if math.IsInf(ic, 0) || math.IsNaN(ic) {
		t.Fatalf("clamped IC must be finite, got %v", ic)
	}
}

func TestSpreadGradientTermsFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		a1 := 1 + rng.Float64()
		a2 := 0.2 + rng.Float64()*0.3
		a3 := 0.05 + rng.Float64()*0.1
		ghat := 0.5 + rng.Float64()*2
		sm := SpreadMoments{
			Alpha: a3 / a2, Beta: a1 - a2*a2/a3, M: a2 * a2 * a2 / (a3 * a3),
			A1: a1, A2: a2, A3: a3,
		}
		if (ghat-sm.Beta)/sm.Alpha < 1e-3 {
			continue // too close to the support edge for finite differences
		}
		ic, dG, dA1, dA2, dA3 := SpreadICGradientTerms(sm, ghat)
		const h = 1e-6
		check := func(name string, analytic float64, perturb func(d float64) SpreadMoments, gp float64) {
			t.Helper()
			icp := SpreadICFromMoments(perturb(h), gp+0)
			icm := SpreadICFromMoments(perturb(-h), gp-0)
			fd := (icp - icm) / (2 * h)
			if math.Abs(fd-analytic) > 1e-4*(1+math.Abs(analytic)) {
				t.Fatalf("%s: analytic %v, finite diff %v (ic=%v)", name, analytic, fd, ic)
			}
		}
		remake := func(b1, b2, b3 float64) SpreadMoments {
			return SpreadMoments{
				Alpha: b3 / b2, Beta: b1 - b2*b2/b3, M: b2 * b2 * b2 / (b3 * b3),
				A1: b1, A2: b2, A3: b3,
			}
		}
		check("dA1", dA1, func(d float64) SpreadMoments { return remake(a1+d, a2, a3) }, ghat)
		check("dA2", dA2, func(d float64) SpreadMoments { return remake(a1, a2+d, a3) }, ghat)
		check("dA3", dA3, func(d float64) SpreadMoments { return remake(a1, a2, a3+d) }, ghat)
		// dG separately.
		icp := SpreadICFromMoments(sm, ghat+h)
		icm := SpreadICFromMoments(sm, ghat-h)
		fd := (icp - icm) / (2 * h)
		if math.Abs(fd-dG) > 1e-4*(1+math.Abs(dG)) {
			t.Fatalf("dG: analytic %v, finite diff %v", dG, fd)
		}
	}
}

func TestLocationScorerMatchesDirectIC(t *testing.T) {
	const n, d = 120, 3
	m := newModel(t, n, d)
	// Commit one pattern so there are two groups with different means.
	if err := m.CommitLocation(bitset.FromIndices(n, seq(0, 40)), mat.Vec{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	y := mat.NewDense(n, d)
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	sc, err := NewLocationScorer(m, y, Default())
	if err != nil {
		t.Fatal(err)
	}
	w := sc.NewWorker()
	for trial := 0; trial < 20; trial++ {
		var idx []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		ext := bitset.FromIndices(n, idx)
		si1, ic1, yhat, ok := w.Score(ext, 1)
		if !ok {
			t.Fatal("scorer rejected a valid extension")
		}
		ic2, err := LocationIC(m, ext, yhat)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ic1-ic2) > 1e-9*(1+math.Abs(ic2)) {
			t.Fatalf("scorer IC %v != direct IC %v", ic1, ic2)
		}
		if math.Abs(si1-ic1/Default().DL(1, false)) > 1e-12 {
			t.Fatal("scorer SI inconsistent with IC/DL")
		}
	}
}

func TestLocationScorerGeneralPathAfterSpreadCommit(t *testing.T) {
	const n, d = 90, 2
	m := newModel(t, n, d)
	ext := bitset.FromIndices(n, seq(0, 30))
	if err := m.CommitLocation(ext, mat.Vec{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitSpread(ext, mat.Vec{1, 0}, mat.Vec{1, 1}, 0.5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	y := mat.NewDense(n, d)
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	sc, err := NewLocationScorer(m, y, Default())
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(n, seq(10, 60)) // straddles both groups
	_, ic1, yhat, ok := sc.NewWorker().Score(q, 2)
	if !ok {
		t.Fatal("scorer rejected straddling extension")
	}
	ic2, err := LocationIC(m, q, yhat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ic1-ic2) > 1e-9*(1+math.Abs(ic2)) {
		t.Fatalf("general-path IC %v != direct %v", ic1, ic2)
	}
}

func TestScoreEmptyExtension(t *testing.T) {
	m := newModel(t, 10, 1)
	y := mat.NewDense(10, 1)
	sc, err := NewLocationScorer(m, y, Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := sc.NewWorker().Score(bitset.New(10), 1); ok {
		t.Fatal("empty extension must not score")
	}
}

// TestBoundResidualsBuiltOnFirstPrepare checks the bound workers' cost
// model: NewBoundWorker builds nothing per point, the first Prepare of
// any worker builds the scorer's residuals once (workers on several
// goroutines may race to it, which -race checks), and a Prepare whose
// scratch is already large enough allocates nothing.
func TestBoundResidualsBuiltOnFirstPrepare(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 3} {
		y := mat.NewDense(n, d)
		for i := range y.Data {
			y.Data[i] = rng.NormFloat64()
		}
		s, err := NewLocationScorer(newModel(t, n, d), y, Default())
		if err != nil {
			t.Fatal(err)
		}
		workers := []engine.BoundWorker{s.NewBoundWorker(), s.NewBoundWorker(), s.NewBoundWorker()}
		if s.boundVals != nil {
			t.Fatalf("d=%d: NewBoundWorker built the residuals", d)
		}
		parent := bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				parent.Add(i)
			}
		}
		scratch := make([][]float64, len(workers))
		var wg sync.WaitGroup
		for i, w := range workers[:2] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !w.Prepare(parent, &scratch[i]) {
					t.Errorf("d=%d: Prepare refused a non-empty parent", d)
				}
			}()
		}
		wg.Wait()
		if len(s.boundVals) != n {
			t.Fatalf("d=%d: first Prepare built %d residuals, want %d", d, len(s.boundVals), n)
		}
		scratch[2] = make([]float64, 0, n+1)
		allocs := testing.AllocsPerRun(20, func() { workers[2].Prepare(parent, &scratch[2]) })
		if allocs != 0 {
			t.Errorf("d=%d: Prepare with a large enough scratch made %.0f allocations", d, allocs)
		}
		for k := 1; k <= parent.Count(); k++ {
			b0, b1, b2 := workers[0].BoundSI(k, 2), workers[1].BoundSI(k, 2), workers[2].BoundSI(k, 2)
			if b0 != b1 || b0 != b2 {
				t.Fatalf("d=%d k=%d: workers disagree: %v %v %v", d, k, b0, b1, b2)
			}
		}
	}
}
