package experiments

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/si"
)

func TestFig1CrimeQuick(t *testing.T) {
	r, err := Fig1Crime(gen.SeedCrime, true)
	if err != nil {
		t.Fatal(err)
	}
	// Shape checks against the paper: ~20% coverage, subgroup mean about
	// twice the overall mean, positive SI.
	if r.Coverage < 0.1 || r.Coverage > 0.35 {
		t.Fatalf("coverage = %v", r.Coverage)
	}
	if r.SubgroupMean < r.OverallMean+0.15 {
		t.Fatalf("subgroup mean %v vs overall %v: shift too small",
			r.SubgroupMean, r.OverallMean)
	}
	if r.SI <= 0 {
		t.Fatalf("SI = %v", r.SI)
	}
	if len(r.GridX) != len(r.FullDensity) || len(r.GridX) != len(r.CoverDensity) {
		t.Fatal("grid lengths differ")
	}
	// Cover density is subgroup density scaled down by coverage.
	for i := range r.CoverDensity {
		if r.CoverDensity[i] > r.SubgroupDensity[i]+1e-12 {
			t.Fatal("cover density exceeds subgroup density")
		}
	}
	if !strings.Contains(r.Render(), "Fig. 1") {
		t.Fatal("render missing title")
	}
}

func TestFig2SyntheticIterations(t *testing.T) {
	iters, err := Fig2Synthetic(gen.SeedSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 {
		t.Fatalf("iterations = %d", len(iters))
	}
	seen := map[int]bool{}
	for i, it := range iters {
		if it.ClusterMatched < 0 {
			t.Fatalf("iteration %d: no embedded cluster matched (%s)", i+1, it.Intention)
		}
		if seen[it.ClusterMatched] {
			t.Fatalf("cluster %d found twice", it.ClusterMatched)
		}
		seen[it.ClusterMatched] = true
		if it.AxisOverlap < 0.9 {
			t.Fatalf("iteration %d: axis overlap %v", i+1, it.AxisOverlap)
		}
		// Unit direction.
		n := math.Hypot(it.W[0], it.W[1])
		if math.Abs(n-1) > 1e-6 {
			t.Fatalf("w norm = %v", n)
		}
	}
	if !strings.Contains(RenderFig2(iters), "iter") {
		t.Fatal("render broken")
	}
}

func TestTableISynthetic(t *testing.T) {
	rows, err := TableISynthetic(gen.SeedSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.SI) != 4 {
			t.Fatalf("row %q has %d SI entries", r.Intention, len(r.SI))
		}
	}
	// The table's key property: the top pattern's SI collapses from
	// iteration 2 onward and stays low.
	top := rows[0]
	if top.SI[0] < 10 {
		t.Fatalf("top SI iteration 1 = %v", top.SI[0])
	}
	for k := 1; k < 4; k++ {
		if top.SI[k] > 1 {
			t.Fatalf("top SI iteration %d = %v, want collapse", k+1, top.SI[k])
		}
	}
	// By iteration 4 all three embedded clusters are committed, so every
	// tracked pattern that equals one of them must have collapsed.
	collapsed := 0
	for _, r := range rows {
		if r.SI[3] < 1 {
			collapsed++
		}
	}
	if collapsed < 6 {
		t.Fatalf("only %d/%d tracked patterns collapsed by iteration 4", collapsed, len(rows))
	}
	if !strings.Contains(RenderTableI(rows), "intention") {
		t.Fatal("render broken")
	}
}

func TestFig3NoiseQuick(t *testing.T) {
	points, err := Fig3Noise(gen.SeedSynthetic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("points = %d", len(points))
	}
	// At zero distortion the true descriptions score far above baseline.
	p0 := points[0]
	for a := 0; a < 3; a++ {
		if p0.SI[a] < 10*math.Max(p0.Baseline, 1) {
			t.Fatalf("clean SI[%d] = %v vs baseline %v", a, p0.SI[a], p0.Baseline)
		}
	}
	// SI degrades with distortion: the heaviest noise level scores far
	// below the clean level.
	last := points[len(points)-1]
	for a := 0; a < 3; a++ {
		if last.SI[a] > p0.SI[a]/2 {
			t.Fatalf("SI[%d] did not degrade: %v -> %v", a, p0.SI[a], last.SI[a])
		}
	}
	if !strings.Contains(RenderFig3(points), "distortion") {
		t.Fatal("render broken")
	}
}

func TestFig456MammalsQuick(t *testing.T) {
	iters, err := Fig456Mammals(gen.SeedMammals, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 {
		t.Fatalf("iterations = %d", len(iters))
	}
	for i, it := range iters {
		if it.Size == 0 {
			t.Fatalf("iteration %d empty", i+1)
		}
		if len(it.TopSpecies) != 5 {
			t.Fatalf("iteration %d: top species = %d", i+1, len(it.TopSpecies))
		}
		// Explanations must be genuinely surprising: observed outside CI
		// for the top species.
		e := it.TopSpecies[0]
		if e.Observed >= e.CI95Lo && e.Observed <= e.CI95Hi {
			t.Fatalf("iteration %d: top species not outside its CI", i+1)
		}
	}
	// Iterations must find different subgroups (non-redundancy).
	if iters[0].Intention == iters[1].Intention {
		t.Fatal("iterations 1 and 2 found the same pattern")
	}
	if !strings.Contains(RenderFig456(iters), "species") {
		t.Fatal("render broken")
	}
}

func TestFig78SocioEconomics(t *testing.T) {
	iters, err := Fig78SocioEconomics(gen.SeedSocio)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 {
		t.Fatalf("iterations = %d", len(iters))
	}
	first := iters[0]
	// The paper's top pattern covers mainly East Germany via a low
	// children share; our replica must reproduce that.
	if first.EastShare < 0.5 {
		t.Fatalf("first pattern east share = %v", first.EastShare)
	}
	if !strings.Contains(first.Intention, "children_pop") {
		t.Fatalf("first intention = %q", first.Intention)
	}
	// LEFT must be the most surprising target in iteration 1 (Fig. 8a).
	if first.Explanations[0].Target != "LEFT_2009" {
		t.Fatalf("most surprising target = %s", first.Explanations[0].Target)
	}
	// 2-sparse spread with smaller-than-expected variance (Fig. 8).
	nonzero := 0
	for _, w := range first.W {
		if w != 0 {
			nonzero++
		}
	}
	if nonzero > 2 {
		t.Fatalf("spread w not 2-sparse: %v", first.W)
	}
	if first.SpreadVariance >= first.ExpectedVariance {
		t.Fatalf("variance %v not below expectation %v",
			first.SpreadVariance, first.ExpectedVariance)
	}
	if !strings.Contains(RenderFig78(iters), "spread") {
		t.Fatal("render broken")
	}
}

func TestFig910Water(t *testing.T) {
	r, err := Fig910Water(gen.SeedWater)
	if err != nil {
		t.Fatal(err)
	}
	// The top pattern selects the polluted tail via bioindicators with a
	// plausible size (the paper's rule covers 91 records).
	if r.Size < 30 || r.Size > 400 {
		t.Fatalf("size = %d", r.Size)
	}
	// Oxygen-demand chemistry dominates the explanation.
	foundOxy := false
	for _, e := range r.TopChems {
		if e.Target == "bod" || e.Target == "kmno4" || e.Target == "k2cr2o7" {
			foundOxy = true
		}
	}
	if !foundOxy {
		t.Fatalf("no oxygen-demand parameter in top chems: %+v", r.TopChems)
	}
	// The spread pattern has larger-than-expected variance (Fig. 9).
	if r.SpreadVariance <= r.ExpectedVariance {
		t.Fatalf("variance %v not above expectation %v",
			r.SpreadVariance, r.ExpectedVariance)
	}
	// CDFs are monotone and end near 1.
	for i := 1; i < len(r.DataCDF); i++ {
		if r.DataCDF[i] < r.DataCDF[i-1] || r.ModelCDF[i] < r.ModelCDF[i-1]-1e-9 {
			t.Fatal("CDF not monotone")
		}
	}
	if r.DataCDF[len(r.DataCDF)-1] < 0.9 {
		t.Fatalf("data CDF ends at %v", r.DataCDF[len(r.DataCDF)-1])
	}
	if !strings.Contains(r.Render(), "dominant") {
		t.Fatal("render broken")
	}
}

func TestTableIIRuntimeQuick(t *testing.T) {
	r, err := TableIIRuntime(3, false) // skip mammals in the quick test
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 3 {
		t.Fatalf("names = %v", r.Names)
	}
	for i := range r.Names {
		if r.Init[i] <= 0 {
			t.Fatalf("%s init time = %v", r.Names[i], r.Init[i])
		}
		if len(r.Location[i]) == 0 {
			t.Fatalf("%s has no location timings", r.Names[i])
		}
		for _, v := range r.Location[i] {
			if v <= 0 {
				t.Fatalf("%s non-positive location timing", r.Names[i])
			}
		}
		if r.Spread[i] == nil {
			t.Fatalf("%s missing spread timings", r.Names[i])
		}
	}
	if !strings.Contains(r.Render(), "Table II") {
		t.Fatal("render broken")
	}
}

func TestRandomSubgroupSIBaselineIsLow(t *testing.T) {
	// A planted target: the first quarter of the rows near 3, the rest
	// near 0.
	rng := rand.New(rand.NewSource(6))
	y := mat.NewDense(200, 1)
	plantedExt := bitset.New(200)
	for i := 0; i < 200; i++ {
		y.Set(i, 0, 0.2*rng.NormFloat64())
		if i < 50 {
			y.Set(i, 0, 3+y.At(i, 0))
			plantedExt.Add(i)
		}
	}
	m, err := background.New(200, mat.Vec{0}, mat.Eye(1))
	if err != nil {
		t.Fatal(err)
	}
	baselineSI := randomSubgroupSI(m, y, 50, 30, si.Default(), 7)
	// The planted subgroup's SI should dwarf the random baseline.
	yhat := mat.Vec{0}
	var sum float64
	plantedExt.ForEach(func(i int) { sum += y.At(i, 0) })
	yhat[0] = sum / 50
	plantedSI, _, err := si.LocationSI(m, plantedExt, yhat, 1, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	if baselineSI >= plantedSI/2 {
		t.Fatalf("random baseline %v too close to planted %v", baselineSI, plantedSI)
	}
}
