package si

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/mat"
)

// The fused sufficient-statistics kernel must be a pure refactoring of
// the naive multi-pass scorer: same floats, bit for bit. The reference
// below is the pre-refactor implementation — one full AND-popcount
// bitset pass per background group plus a ForEach walk of Y — kept as
// the oracle, with one deliberate co-evolution: both it and the fused
// path moved from solve-then-dot to the forward-substitution
// Cholesky.MahalanobisSq (the quadratic form is all either needs), so
// the two remain the same float program.
func referenceScore(m *background.Model, y *mat.Dense, shared *mat.Cholesky,
	ext *bitset.Set, numConds int, p Params) (si, ic float64, yhat mat.Vec, ok bool) {
	cnt := ext.Count()
	if cnt == 0 {
		return 0, 0, nil, false
	}
	d := m.D()
	yhat = make(mat.Vec, d)
	ext.ForEach(func(i int) {
		row := y.Row(i)
		for j, v := range row {
			yhat[j] += v
		}
	})
	yhat.Scale(1 / float64(cnt))

	muI := make(mat.Vec, d)
	var cov *mat.Dense
	if shared == nil {
		cov = mat.NewDense(d, d)
	}
	for _, g := range m.Groups() {
		icnt := g.Members.IntersectCount(ext)
		if icnt == 0 {
			continue
		}
		w := float64(icnt)
		muI.AddScaled(w, g.Mu)
		if cov != nil {
			cov.AddScaled(w, g.Sigma)
		}
	}
	muI.Scale(1 / float64(cnt))

	diff := yhat.Sub(muI)
	if shared != nil {
		mahal := float64(cnt) * shared.MahalanobisSq(make(mat.Vec, d), diff)
		ic = 0.5 * (float64(d)*math.Log(2*math.Pi) + shared.LogDet() -
			float64(d)*math.Log(float64(cnt)) + mahal)
	} else {
		cov.Scale(1 / float64(cnt*cnt))
		chol, err := mat.NewCholesky(cov)
		if err != nil {
			return 0, 0, nil, false
		}
		mahal := chol.MahalanobisSq(make(mat.Vec, d), diff)
		ic = 0.5 * (float64(d)*math.Log(2*math.Pi) + chol.LogDet() + mahal)
	}
	return ic / p.DL(numConds, false), ic, yhat, true
}

// randomModel commits a randomized sequence of location (and optionally
// spread) patterns, producing models with anywhere from 1 to dozens of
// parameter groups.
func randomModel(t *testing.T, rng *rand.Rand, n, d, commits int, withSpread bool) (*background.Model, *mat.Dense) {
	t.Helper()
	y := mat.NewDense(n, d)
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	m, err := background.New(n, make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < commits; c++ {
		ext := bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				ext.Add(i)
			}
		}
		if ext.Count() < 2 {
			continue
		}
		target := make(mat.Vec, d)
		for j := range target {
			target[j] = 0.3 * rng.NormFloat64()
		}
		if err := m.CommitLocation(ext, target); err != nil {
			t.Fatal(err)
		}
		if withSpread && c == 0 {
			w := make(mat.Vec, d)
			w[rng.Intn(d)] = 1
			if err := m.CommitSpread(ext, w, target, 0.5+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m, y
}

func randomExt(rng *rand.Rand, n int) *bitset.Set {
	ext := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			ext.Add(i)
		}
	}
	return ext
}

// sparseExt draws an extension of 1–8 random points: small enough that
// on a many-group model the label walk beats the AND-popcounts.
func sparseExt(rng *rand.Rand, n int) *bitset.Set {
	ext := bitset.New(n)
	for k := 1 + rng.Intn(8); k > 0; k-- {
		ext.Add(rng.Intn(n))
	}
	return ext
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestFusedScorerMatchesNaiveBitForBit drives randomized models
// (varying group counts, both the shared-Σ and the general covariance
// path) and asserts that the fused single-pass scorer — through the
// worker's Score and its sufficient-statistics ScoreStats entry
// points — reproduces the naive multi-pass scorer's
// SI, IC and subgroup mean exactly, bit for bit. ScoreStats takes its
// group counts from the extension in one of three ways (one group, the
// AND-popcounts, or the label walk); the trials must reach all three.
func TestFusedScorerMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Default()
	var single, popcount, labelWalk int
	for trial := 0; trial < 40; trial++ {
		n := 96 + rng.Intn(160)
		d := 1 + rng.Intn(4)
		commits := rng.Intn(7)
		if trial%4 == 3 {
			commits = 7 + rng.Intn(6) // many groups: the label walk's regime
		}
		withSpread := trial%3 == 0 && commits > 0
		m, y := randomModel(t, rng, n, d, commits, withSpread)

		sc, err := NewLocationScorer(m, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if withSpread && sc.shared != nil {
			t.Fatal("spread commit should break the shared-Σ fast path")
		}
		worker := sc.newWorker()

		for e := 0; e < 8; e++ {
			ext := randomExt(rng, n)
			if e%2 == 1 {
				ext = sparseExt(rng, n)
			}
			numConds := 1 + rng.Intn(3)
			switch cnt := ext.Count(); {
			case m.NumGroups() == 1:
				single++
			case m.NumGroups()*len(ext.Words()) < 4*cnt:
				popcount++
			default:
				labelWalk++
			}

			wantSI, wantIC, wantYhat, wantOK := referenceScore(
				m, y, sc.shared, ext, numConds, p)

			checks := []struct {
				name  string
				score func() (float64, float64, mat.Vec, bool)
			}{
				{"Worker.Score", func() (float64, float64, mat.Vec, bool) {
					return worker.Score(ext, numConds)
				}},
				{"Worker.ScoreStats", func() (float64, float64, mat.Vec, bool) {
					// The target sum the Language caches per condition: rows
					// added in increasing point order.
					ysum := make(mat.Vec, d)
					size := 0
					ext.ForEach(func(i int) {
						row := y.Row(i)
						for j, v := range row {
							ysum[j] += v
						}
						size++
					})
					return worker.ScoreStats(ext, ysum, size, numConds)
				}},
			}
			for _, c := range checks {
				gotSI, gotIC, gotYhat, gotOK := c.score()
				if gotOK != wantOK {
					t.Fatalf("trial %d %s: ok=%v, reference %v", trial, c.name, gotOK, wantOK)
				}
				if !wantOK {
					continue
				}
				if !bitsEqual(gotSI, wantSI) || !bitsEqual(gotIC, wantIC) {
					t.Fatalf("trial %d %s (groups=%d, shared=%v): SI/IC %v/%v, reference %v/%v",
						trial, c.name, m.NumGroups(), sc.shared != nil, gotSI, gotIC, wantSI, wantIC)
				}
				for j := range wantYhat {
					if !bitsEqual(gotYhat[j], wantYhat[j]) {
						t.Fatalf("trial %d %s: yhat[%d] = %v, reference %v",
							trial, c.name, j, gotYhat[j], wantYhat[j])
					}
				}
			}
		}
	}
	if single == 0 || popcount == 0 || labelWalk == 0 {
		t.Fatalf("count paths reached: single group %d, popcount %d, label walk %d; want all three",
			single, popcount, labelWalk)
	}
	t.Logf("count paths reached: single group %d, popcount %d, label walk %d", single, popcount, labelWalk)
}

// TestFusedGeneralPathMatchesPublicLocationSI forces the general
// covariance path on shared-Σ models (the fast path disabled) and
// checks it against the public LocationSI — the SubgroupMeanMarginal-
// based formulation — bit for bit: the fused general path must be the
// same float program as the textbook one.
func TestFusedGeneralPathMatchesPublicLocationSI(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := Default()
	for trial := 0; trial < 20; trial++ {
		n := 80 + rng.Intn(120)
		d := 1 + rng.Intn(3)
		m, y := randomModel(t, rng, n, d, rng.Intn(5), false)

		sc, err := NewLocationScorer(m, y, p)
		if err != nil {
			t.Fatal(err)
		}
		sc.shared = nil // force the general path
		worker := sc.newWorker()

		for e := 0; e < 6; e++ {
			ext := randomExt(rng, n)
			si, ic, yhat, ok := worker.Score(ext, 2)
			if !ok {
				continue
			}
			wantSI, wantIC, err := LocationSI(m, ext, yhat.Clone(), 2, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(si, wantSI) || !bitsEqual(ic, wantIC) {
				t.Fatalf("trial %d: general path %v/%v, LocationSI %v/%v",
					trial, si, ic, wantSI, wantIC)
			}
		}
	}
}

// TestSharedFastPathAgreesWithGeneralPath cross-checks the two IC
// formulations (they are algebraically equal but float-different) to a
// tight relative tolerance on shared-Σ models.
func TestSharedFastPathAgreesWithGeneralPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := Default()
	for trial := 0; trial < 10; trial++ {
		n := 100 + rng.Intn(100)
		d := 1 + rng.Intn(3)
		m, y := randomModel(t, rng, n, d, rng.Intn(5), false)

		fast, err := NewLocationScorer(m, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if fast.shared == nil {
			t.Fatal("location-only model must have the shared fast path")
		}
		slow, err := NewLocationScorer(m, y, p)
		if err != nil {
			t.Fatal(err)
		}
		slow.shared = nil
		fw, sw := fast.newWorker(), slow.newWorker()

		for e := 0; e < 6; e++ {
			ext := randomExt(rng, n)
			fsi, fic, _, fok := fw.Score(ext, 2)
			ssi, sic, _, sok := sw.Score(ext, 2)
			if fok != sok {
				t.Fatalf("trial %d: ok mismatch", trial)
			}
			if !fok {
				continue
			}
			if relDiff(fic, sic) > 1e-9 || relDiff(fsi, ssi) > 1e-9 {
				t.Fatalf("trial %d: fast %v/%v vs general %v/%v", trial, fsi, fic, ssi, sic)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}
