package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mat"
)

// TestNewLanguageAllocBudget pins what a condition-language build
// allocates on the crime replica (n=1994, 122 numeric descriptors, 4
// split points): the conditions and extensions it keeps, plus one 2n
// selection scratch shared by every column's split points. That is
// about 0.4 MB; a selection buffer per column would add 32 KB for each
// of the 122 columns (about 4.4 MB in all).
func TestNewLanguageAllocBudget(t *testing.T) {
	ds := gen.CrimeLike(gen.SeedCrime).DS
	const runs = 3
	const maxBytes = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { engine.NewLanguage(ds, 4) })
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up call
	t.Logf("%.0f allocs, %d bytes (max %d) per build", allocs, perBuild, maxBytes)
	if perBuild > maxBytes {
		t.Errorf("NewLanguage allocated %d bytes per build, want at most %d", perBuild, maxBytes)
	}
}

// condStatsDS builds a dataset of n rows with a binary, a categorical
// and two numeric descriptors and the given target matrix.
func condStatsDS(rng *rand.Rand, y *mat.Dense) *dataset.Dataset {
	n := y.R
	flag := make([]float64, n)
	cat := make([]float64, n)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		flag[i] = float64(rng.Intn(2))
		cat[i] = float64(rng.Intn(3))
		a[i] = rng.NormFloat64()
		b[i] = float64(rng.Intn(10))
	}
	names := make([]string, y.C)
	for j := range names {
		names[j] = fmt.Sprintf("t%d", j)
	}
	return &dataset.Dataset{
		Name: "cond-stats",
		Descriptors: []dataset.Column{
			{Name: "flag", Kind: dataset.Binary, Values: flag, Levels: []string{"0", "1"}},
			{Name: "cat", Kind: dataset.Categorical, Values: cat, Levels: []string{"x", "y", "z"}},
			{Name: "a", Kind: dataset.Numeric, Values: a},
			{Name: "b", Kind: dataset.Numeric, Values: b},
		},
		TargetNames: names,
		Y:           y,
	}
}

// TestCondTargetStatsMatchesWalk checks Language.CondTargetStats against
// a naive per-condition walk — rows added in increasing point order —
// bit for bit: real targets whose magnitudes span twelve decades (so a
// different addition order shows), and a 0/1 matrix with -0.0 cells,
// which takes the popcount kernel.
func TestCondTargetStatsMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 300
	var cases []*mat.Dense
	for _, d := range []int{1, 5, 16} {
		y := mat.NewDense(n, d)
		for i := range y.Data {
			y.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
		cases = append(cases, y)
	}
	binary := mat.NewDense(n, 7)
	for i := range binary.Data {
		switch rng.Intn(3) {
		case 0:
			binary.Data[i] = math.Copysign(0, -1)
		case 1:
			binary.Data[i] = 1
		}
	}
	cases = append(cases, binary)

	for _, y := range cases {
		lang := engine.NewLanguage(condStatsDS(rng, y), 4)
		sums, sizes := lang.CondTargetStats()
		if len(sums) != len(lang.Exts) || len(sizes) != len(lang.Exts) {
			t.Fatalf("d=%d: %d sums, %d sizes for %d conditions", y.C, len(sums), len(sizes), len(lang.Exts))
		}
		for ci, ext := range lang.Exts {
			want := make(mat.Vec, y.C)
			size := 0
			ext.ForEach(func(i int) {
				for j, v := range y.Row(i) {
					want[j] += v
				}
				size++
			})
			if sizes[ci] != size {
				t.Fatalf("d=%d cond %d: size %d, walk %d", y.C, ci, sizes[ci], size)
			}
			for j := range want {
				if math.Float64bits(sums[ci][j]) != math.Float64bits(want[j]) {
					t.Fatalf("d=%d cond %d target %d: sum %v, walk %v", y.C, ci, j, sums[ci][j], want[j])
				}
			}
		}
	}
}
