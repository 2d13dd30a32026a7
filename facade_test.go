package sisd_test

import (
	"math"
	"strings"
	"testing"

	sisd "repro"
	"repro/internal/background"
	"repro/internal/mat"
	"repro/internal/search"
	"repro/internal/si"
)

func TestReadARFFViaFacade(t *testing.T) {
	arff := `@relation demo
@attribute flag {no, yes}
@attribute score numeric
@data
no, 0.1
yes, 3.0
yes, 3.1
no, 0.2
yes, 2.9
no, 0.3
`
	ds, err := sisd.ReadARFF(strings.NewReader(arff), []string{"score"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sisd.NewMiner(ds, sisd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	loc, _, err := m.MineLocation()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(loc.Intention.Format(ds), "flag") {
		t.Fatalf("top pattern = %v", loc.Intention.Format(ds))
	}
}

// TestSaveRestoreMinerViaFacade exercises the model export and import:
// a miner restored from a saved model mines exactly what the original
// would have, location and spread, at the same model version — on the
// synthetic data after one location step, and on water after three
// location + spread steps.
func TestSaveRestoreMinerViaFacade(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ds     *sisd.Dataset
		depth  int
		steps  int
		spread bool
	}{
		{"synthetic", sisd.GenerateSynthetic(620), 2, 1, false},
		{"water", sisd.GenerateWaterQualityLike(1), 2, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sisd.Config{}
			cfg.Search.MaxDepth = tc.depth
			m, err := sisd.NewMiner(tc.ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.steps; i++ {
				if _, err := m.Step(tc.spread); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			var buf strings.Builder
			if err := sisd.SaveModel(m, &buf); err != nil {
				t.Fatal(err)
			}
			m2, err := sisd.Restore(tc.ds, sisd.RestoreOptions{
				Config:     cfg,
				SavedModel: strings.NewReader(buf.String()),
				Iterations: m.Iteration(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if m2.Iteration() != m.Iteration() {
				t.Fatalf("iterations %d != %d", m2.Iteration(), m.Iteration())
			}
			if got, want := m2.Snapshot().Version(), m.Snapshot().Version(); got != want {
				t.Fatalf("restored model version %d, want %d", got, want)
			}
			want, _, err := m.MineLocation()
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := m2.MineLocation()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(want.SI) != math.Float64bits(got.SI) || want.Intention.Format(tc.ds) != got.Intention.Format(tc.ds) {
				t.Fatalf("restored miner's location diverged: %v vs %v", got, want)
			}
			wantSp, err := m.MineSpread(want)
			if err != nil {
				t.Fatal(err)
			}
			gotSp, err := m2.MineSpread(got)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(wantSp.SI) != math.Float64bits(gotSp.SI) {
				t.Fatalf("restored miner's spread SI %v, want %v", gotSp.SI, wantSp.SI)
			}
		})
	}
}

func TestMineOptimalLocation1DViaFacade(t *testing.T) {
	ds := sisd.GenerateCrimeLike(1994)
	col := ds.TargetColumn(0)
	var mean, m2 float64
	for i, v := range col {
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	variance := m2 / float64(len(col))

	opt, err := sisd.MineOptimalLocation1D(ds, mean, variance,
		sisd.DefaultSIParams(), 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Extension == nil || opt.SI <= 0 {
		t.Fatalf("optimal result = %+v", opt)
	}
	// At depth 1 the global optimum must match the beam's best
	// single-condition pattern (the beam evaluates all of them).
	m, err := sisd.NewMiner(ds, sisd.Config{
		Search: sisd.SearchParams{MaxDepth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	loc, _, err := m.MineLocation()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.SI-loc.SI) > 1e-6*(1+loc.SI) {
		t.Fatalf("B&B SI %v vs beam depth-1 SI %v", opt.SI, loc.SI)
	}
	if opt.Intention.Key() != loc.Intention.Key() {
		t.Fatalf("B&B %v vs beam %v",
			opt.Intention.Format(ds), loc.Intention.Format(ds))
	}
}

// TestMineOptimalLocation1DBitIdenticalToExhaustive: the optimal search
// is the exact search, so its optimum is the top of an unpruned
// Exhaustive walk over the same fresh model bit for bit, on crime at
// depth 1 and 2 (about 0.5 s of unpruned walking at depth 2).
func TestMineOptimalLocation1DBitIdenticalToExhaustive(t *testing.T) {
	ds := sisd.GenerateCrimeLike(1994)
	col := ds.TargetColumn(0)
	var mean, m2 float64
	for i, v := range col {
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	variance := m2 / float64(len(col))
	m, err := background.New(ds.N(), mat.Vec{mean}, &mat.Dense{R: 1, C: 1, Data: []float64{variance}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2} {
		opt, err := sisd.MineOptimalLocation1D(ds, mean, variance, sisd.DefaultSIParams(), depth, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		top := search.Exhaustive(ds, sc, search.Params{
			MaxDepth: depth, NumSplits: 4, MinSupport: 2, TopK: 1, NoPrune: true,
		}).Top()
		if top == nil || opt.Extension == nil {
			t.Fatalf("depth %d: empty result", depth)
		}
		if opt.SI != top.SI || opt.IC != top.IC {
			t.Fatalf("depth %d: optimal SI %.17g IC %.17g, exhaustive SI %.17g IC %.17g",
				depth, opt.SI, opt.IC, top.SI, top.IC)
		}
		if opt.Intention.Key() != top.Intention.Key() || !opt.Extension.Equal(top.Extension) {
			t.Fatalf("depth %d: optimal %v, exhaustive %v",
				depth, opt.Intention.Format(ds), top.Intention.Format(ds))
		}
	}
}
