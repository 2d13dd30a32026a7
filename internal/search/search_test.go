package search

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/si"
)

// plantedDS builds a dataset with one binary descriptor that exactly
// marks a subgroup with displaced target mean, one noisy binary
// descriptor, and one numeric descriptor correlated with the target.
func plantedDS(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	y := mat.NewDense(n, 1)
	flag := make([]float64, n)
	noise := make([]float64, n)
	num := make([]float64, n)
	for i := 0; i < n; i++ {
		if i < n/4 {
			flag[i] = 1
			y.Set(i, 0, 3+0.1*rng.NormFloat64())
		} else {
			y.Set(i, 0, 0.1*rng.NormFloat64())
		}
		noise[i] = float64(rng.Intn(2))
		num[i] = y.At(i, 0) + 0.5*rng.NormFloat64()
	}
	return &dataset.Dataset{
		Name: "planted",
		Descriptors: []dataset.Column{
			{Name: "flag", Kind: dataset.Binary, Values: flag, Levels: []string{"0", "1"}},
			{Name: "coin", Kind: dataset.Binary, Values: noise, Levels: []string{"0", "1"}},
			{Name: "num", Kind: dataset.Numeric, Values: num},
		},
		TargetNames: []string{"t"},
		Y:           y,
	}
}

func scorerFor(t *testing.T, ds *dataset.Dataset) *si.LocationScorer {
	t.Helper()
	m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestBeamFindsPlantedPattern(t *testing.T) {
	ds := plantedDS(80, 1)
	res := Beam(ds, scorerFor(t, ds), Params{})
	top := res.Top()
	if top == nil {
		t.Fatal("no patterns found")
	}
	// The single condition flag='1' should be the winner: max coverage of
	// the displaced subgroup with minimum description length.
	if len(top.Intention) != 1 {
		t.Fatalf("top intention = %v", top.Intention.Format(ds))
	}
	c := top.Intention[0]
	if ds.Descriptors[c.Attr].Name != "flag" || c.Op != pattern.EQ || c.Level != 1 {
		t.Fatalf("top pattern = %v", top.Intention.Format(ds))
	}
	if top.Size != 20 {
		t.Fatalf("top size = %d, want 20", top.Size)
	}
	if top.SI <= 0 {
		t.Fatalf("top SI = %v", top.SI)
	}
}

func TestBeamMatchesExhaustiveOnSmallData(t *testing.T) {
	ds := plantedDS(40, 2)
	sc := scorerFor(t, ds)
	beam := Beam(ds, sc, Params{BeamWidth: 64, MaxDepth: 2, TopK: 10})
	exh := Exhaustive(ds, sc, Params{MaxDepth: 2, NumSplits: 4, MinSupport: 2, TopK: 10, NoPrune: true})
	bt, et := beam.Top(), exh.Top()
	if bt == nil || et == nil {
		t.Fatal("empty results")
	}
	if bt.Intention.Key() != et.Intention.Key() {
		t.Fatalf("beam top %v != exhaustive top %v",
			bt.Intention.Format(ds), et.Intention.Format(ds))
	}
	if bt.SI != et.SI {
		t.Fatalf("beam SI %v != exhaustive SI %v", bt.SI, et.SI)
	}
}

func TestBeamDeterministic(t *testing.T) {
	ds := plantedDS(80, 3)
	sc := scorerFor(t, ds)
	a := Beam(ds, sc, Params{Parallelism: 8})
	b := Beam(ds, sc, Params{Parallelism: 1})
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("pattern counts differ: %d vs %d", len(a.Patterns), len(b.Patterns))
	}
	for i := range a.Patterns {
		if a.Patterns[i].Intention.Key() != b.Patterns[i].Intention.Key() ||
			a.Patterns[i].SI != b.Patterns[i].SI {
			t.Fatalf("rank %d differs between parallel and serial runs", i)
		}
	}
}

func TestBeamNoDuplicateIntentions(t *testing.T) {
	ds := plantedDS(60, 4)
	res := Beam(ds, scorerFor(t, ds), Params{MaxDepth: 3})
	seen := map[string]bool{}
	for _, f := range res.Patterns {
		k := f.Intention.Key()
		if seen[k] {
			t.Fatalf("duplicate intention in results: %v", f.Intention.Format(ds))
		}
		seen[k] = true
	}
}

func TestBeamRespectsMinSupport(t *testing.T) {
	ds := plantedDS(60, 5)
	res := Beam(ds, scorerFor(t, ds), Params{MinSupport: 10})
	for _, f := range res.Patterns {
		if f.Size < 10 {
			t.Fatalf("pattern with size %d below MinSupport", f.Size)
		}
	}
}

func TestBeamRespectsDeadline(t *testing.T) {
	ds := plantedDS(200, 6)
	p := Params{MaxDepth: 4, Deadline: time.Now().Add(-time.Second)}
	res := Beam(ds, scorerFor(t, ds), p)
	if !res.TimedOut {
		t.Fatal("expired deadline should mark TimedOut")
	}
	if res.Levels != 0 {
		t.Fatalf("no level should complete, got %d", res.Levels)
	}
}

func TestBeamDepthLimits(t *testing.T) {
	ds := plantedDS(60, 7)
	res := Beam(ds, scorerFor(t, ds), Params{MaxDepth: 2})
	for _, f := range res.Patterns {
		if len(f.Intention) > 2 {
			t.Fatalf("intention deeper than MaxDepth: %v", f.Intention.Format(ds))
		}
	}
	if res.Levels != 2 {
		t.Fatalf("Levels = %d, want 2", res.Levels)
	}
}

func TestResultsTopEmpty(t *testing.T) {
	r := &Results{}
	if r.Top() != nil {
		t.Fatal("empty results should have nil Top")
	}
}

func TestExtensionsAreConsistent(t *testing.T) {
	ds := plantedDS(60, 8)
	res := Beam(ds, scorerFor(t, ds), Params{MaxDepth: 3})
	for _, f := range res.Patterns {
		want := f.Intention.Extension(ds)
		if !f.Extension.Equal(want) {
			t.Fatalf("stored extension differs from recomputed for %v",
				f.Intention.Format(ds))
		}
		if f.Size != want.Count() {
			t.Fatalf("size field inconsistent")
		}
	}
}

// constScorer scores every subgroup by its size (for engine-only tests).
// It is its own worker and offers no bound.
type constScorer struct{}

func (s constScorer) NewWorker() engine.Worker         { return s }
func (constScorer) NewBoundWorker() engine.BoundWorker { return nil }

func (constScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	s := float64(ext.Count())
	return s, s, nil, true
}

func (s constScorer) ScoreStats(ext *bitset.Set, _ mat.Vec, _, numConds int) (float64, float64, mat.Vec, bool) {
	return s.Score(ext, numConds)
}

func TestBeamWithCustomScorer(t *testing.T) {
	ds := plantedDS(60, 9)
	res := Beam(ds, constScorer{}, Params{MaxDepth: 1})
	top := res.Top()
	if top == nil {
		t.Fatal("no results")
	}
	// With a size scorer, the best single condition is the one with the
	// largest extension.
	for _, f := range res.Patterns {
		if f.Size > top.Size {
			t.Fatalf("top is not the largest: %d vs %d", top.Size, f.Size)
		}
	}
}
