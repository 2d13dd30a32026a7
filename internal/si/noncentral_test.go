package si

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/mat"
)

// MomentsNoncentral computes the three-moment fit when the per-point
// means are NOT pinned to the center — i.e. when committed patterns
// overlap, so (yᵢ−ŷ_I)ᵀw follows a noncentral χ² after standardization
// (footnote 3 of the paper, which falls back to the central
// approximation there). With aᵢ = wᵀΣᵢw/|I| and noncentrality
// λᵢ = (wᵀ(ŷ_I−µᵢ))²/(wᵀΣᵢw), the first three cumulants of
// g = Σ aᵢ·χ²₁(λᵢ) are
//
//	κ₁ = Σ aᵢ(1+λᵢ),  κ₂ = 2Σ aᵢ²(1+2λᵢ),  κ₃ = 8Σ aᵢ³(1+3λᵢ),
//
// and matching them to α·χ²_m + β gives α = κ₃/(4κ₂), m = κ₂/(2α²),
// β = κ₁ − αm. With all λᵢ = 0 this reduces exactly to Eq. 18. This is
// an extension beyond the paper: it makes the spread IC accurate in the
// overlapping-pattern regime. The search does not use it; the tests
// below validate it against Monte Carlo as an alternative to Eq. 18.
func MomentsNoncentral(gs []shiftedGroup, total int) SpreadMoments {
	inv := 1 / float64(total)
	var k1, k2, k3, a1, a2, a3 float64
	for _, g := range gs {
		a := g.S * inv
		lam := g.MeanShift * g.MeanShift / g.S
		c := float64(g.Count)
		k1 += c * a * (1 + lam)
		k2 += 2 * c * a * a * (1 + 2*lam)
		k3 += 8 * c * a * a * a * (1 + 3*lam)
		a1 += c * a
		a2 += c * a * a
		a3 += c * a * a * a
	}
	alpha := k3 / (4 * k2)
	m := k2 / (2 * alpha * alpha)
	return SpreadMoments{
		Alpha: alpha, Beta: k1 - alpha*m, M: m,
		A1: a1, A2: a2, A3: a3,
	}
}

// shiftedGroup is what the noncentral fit needs of one group inside an
// extension: its count, its projected variance wᵀΣ_g·w and its mean
// shift wᵀ(center − µ_g).
type shiftedGroup struct {
	Count        int
	S, MeanShift float64
}

// centralStats drops the mean shifts, for the central fit (Eq. 18).
func centralStats(gs []shiftedGroup) []groupStats {
	out := make([]groupStats, len(gs))
	for i, g := range gs {
		out[i] = groupStats{Count: g.Count, S: g.S}
	}
	return out
}

// shiftedGroups reads, from the model's groups and labeling, every
// group intersecting ext with its count there, its projected variance
// along w and its mean shift from center.
func shiftedGroups(m background.Reader, ext *bitset.Set, w, center mat.Vec) []shiftedGroup {
	groups, labels := m.Groups(), m.Labels()
	counts := make([]int, len(groups))
	ext.ForEach(func(i int) { counts[labels[i]]++ })
	var gs []shiftedGroup
	for gi, g := range groups {
		if counts[gi] == 0 {
			continue
		}
		gs = append(gs, shiftedGroup{
			Count:     counts[gi],
			S:         g.Sigma.QuadForm(w),
			MeanShift: w.Dot(center.Sub(g.Mu)),
		})
	}
	return gs
}

// SpreadICNoncentral is SpreadIC with the noncentral three-moment fit,
// which stays accurate when committed patterns overlap and the
// per-point means deviate from the center.
func SpreadICNoncentral(m background.Reader, ext *bitset.Set, w, center mat.Vec, ghat float64) (float64, error) {
	cnt := ext.Count()
	if cnt == 0 {
		return 0, background.ErrNoPoints
	}
	return SpreadICFromMoments(MomentsNoncentral(shiftedGroups(m, ext, w, center), cnt), ghat), nil
}

func TestShiftedGroupsAfterLocationCommit(t *testing.T) {
	// A location commit pins the group's mean to the committed one, so
	// around that center the shift vanishes.
	m := newModel(t, 20, 2)
	ext := bsFrom(20, seq(0, 10))
	if err := m.CommitLocation(ext, vec2(1, 1)); err != nil {
		t.Fatal(err)
	}
	gs := shiftedGroups(m, ext, vec2(1, 0), vec2(1, 1))
	if len(gs) != 1 {
		t.Fatalf("expected 1 group inside, got %d", len(gs))
	}
	if gs[0].Count != 10 || math.Abs(gs[0].S-1) > 1e-12 {
		t.Fatalf("group = %+v", gs[0])
	}
	if math.Abs(gs[0].MeanShift) > 1e-9 {
		t.Fatalf("mean shift should be 0 after location commit, got %v", gs[0].MeanShift)
	}
}

// SpreadApproxCDF evaluates the fitted distribution function
// P(g ≤ x) = P(χ²_m ≤ (x−β)/α) for either moment fit — used for
// goodness-of-fit tests and CDF plots.
func SpreadApproxCDF(sm SpreadMoments, x float64) float64 {
	u := (x - sm.Beta) / sm.Alpha
	if u <= 0 {
		return 0
	}
	return ChiSquaredCDF(u, sm.M)
}

// sampleMixture draws from g = Σ (cᵢ copies of) aᵢ·χ²₁(λᵢ) with
// aᵢ = Sᵢ/total and λᵢ = shiftᵢ²/Sᵢ (one χ²₁ term per point).
func sampleMixture(rng *rand.Rand, gs []shiftedGroup, total int) float64 {
	var sum float64
	for _, g := range gs {
		a := g.S / float64(total)
		delta := g.MeanShift / math.Sqrt(g.S)
		for c := 0; c < g.Count; c++ {
			z := rng.NormFloat64() + delta
			sum += a * z * z
		}
	}
	return sum
}

// maxCDFError compares the fitted CDF against the empirical CDF of
// Monte Carlo samples (Kolmogorov–Smirnov style statistic).
func maxCDFError(sm SpreadMoments, samples []float64) float64 {
	sort.Float64s(samples)
	worst := 0.0
	n := float64(len(samples))
	for i, x := range samples {
		emp := (float64(i) + 0.5) / n
		if d := math.Abs(SpreadApproxCDF(sm, x) - emp); d > worst {
			worst = d
		}
	}
	return worst
}

func TestNoncentralReducesToCentral(t *testing.T) {
	gs := []shiftedGroup{
		{Count: 10, S: 1.5, MeanShift: 0},
		{Count: 20, S: 0.5, MeanShift: 0},
	}
	a := Moments(centralStats(gs), 30)
	b := MomentsNoncentral(gs, 30)
	if math.Abs(a.Alpha-b.Alpha) > 1e-12 || math.Abs(a.Beta-b.Beta) > 1e-12 ||
		math.Abs(a.M-b.M) > 1e-9 {
		t.Fatalf("zero shifts must reduce to Eq. 18: %+v vs %+v", a, b)
	}
}

func TestNoncentralMatchesTrueMoments(t *testing.T) {
	gs := []shiftedGroup{
		{Count: 12, S: 2.0, MeanShift: 1.5},
		{Count: 8, S: 0.7, MeanShift: -0.6},
	}
	total := 20
	sm := MomentsNoncentral(gs, total)
	// True cumulants.
	var k1, k2 float64
	for _, g := range gs {
		a := g.S / float64(total)
		lam := g.MeanShift * g.MeanShift / g.S
		k1 += float64(g.Count) * a * (1 + lam)
		k2 += 2 * float64(g.Count) * a * a * (1 + 2*lam)
	}
	gotMean := sm.Alpha*sm.M + sm.Beta
	gotVar := 2 * sm.Alpha * sm.Alpha * sm.M
	if math.Abs(gotMean-k1) > 1e-10*(1+k1) {
		t.Fatalf("fit mean %v != κ₁ %v", gotMean, k1)
	}
	if math.Abs(gotVar-k2) > 1e-10*(1+k2) {
		t.Fatalf("fit var %v != κ₂ %v", gotVar, k2)
	}
}

func TestNoncentralBeatsCentralUnderShift(t *testing.T) {
	// With substantial mean shifts the noncentral fit must match the
	// Monte Carlo distribution much better than the central one.
	gs := []shiftedGroup{
		{Count: 25, S: 1.0, MeanShift: 2.0},
		{Count: 15, S: 0.5, MeanShift: -1.5},
	}
	total := 40
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = sampleMixture(rng, gs, total)
	}
	central := maxCDFError(Moments(centralStats(gs), total), samples)
	noncentral := maxCDFError(MomentsNoncentral(gs, total), samples)
	if noncentral > 0.02 {
		t.Fatalf("noncentral fit KS error %v too large", noncentral)
	}
	if noncentral >= central {
		t.Fatalf("noncentral fit (%v) not better than central (%v)", noncentral, central)
	}
	if central < 0.05 {
		t.Fatalf("test premise broken: central fit unexpectedly good (%v)", central)
	}
}

func TestNoncentralFitAccurateWithoutShift(t *testing.T) {
	gs := []shiftedGroup{
		{Count: 30, S: 1.2, MeanShift: 0},
		{Count: 10, S: 3.0, MeanShift: 0},
	}
	total := 40
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = sampleMixture(rng, gs, total)
	}
	if err := maxCDFError(Moments(centralStats(gs), total), samples); err > 0.02 {
		t.Fatalf("central fit KS error %v too large in its own regime", err)
	}
}

func TestSpreadICNoncentralEndToEnd(t *testing.T) {
	// Overlapping commits leave µᵢ ≠ ŷ_I inside the queried subgroup;
	// the noncentral IC must differ from the central one there, and
	// both must be finite.
	const n = 60
	m := newModel(t, n, 2)
	extA := make([]int, 0, 40)
	for i := 0; i < 40; i++ {
		extA = append(extA, i)
	}
	if err := m.CommitLocation(bsFrom(n, extA), vec2(2, 0)); err != nil {
		t.Fatal(err)
	}
	// Query a subgroup straddling the updated and untouched groups.
	q := make([]int, 0, 40)
	for i := 20; i < 60; i++ {
		q = append(q, i)
	}
	ext := bsFrom(n, q)
	center := vec2(1, 0) // not the model mean of either group
	w := vec2(1, 0)
	cIC, err := SpreadIC(m, ext, w, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	ncIC, err := SpreadICNoncentral(m, ext, w, center, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cIC) || math.IsNaN(ncIC) || math.IsInf(cIC, 0) || math.IsInf(ncIC, 0) {
		t.Fatalf("non-finite ICs: %v, %v", cIC, ncIC)
	}
	if cIC == ncIC {
		t.Fatal("noncentral IC should differ when means are shifted")
	}
}

func TestSpreadApproxCDFMonotone(t *testing.T) {
	sm := Moments([]groupStats{{Count: 20, S: 1.0}}, 20)
	prev := -1.0
	for x := -1.0; x < 6; x += 0.1 {
		v := SpreadApproxCDF(sm, x)
		if v < prev-1e-12 || v < 0 || v > 1 {
			t.Fatalf("CDF misbehaves at %v: %v", x, v)
		}
		prev = v
	}
	if SpreadApproxCDF(sm, -5) != 0 {
		t.Fatal("CDF below support must be 0")
	}
}
