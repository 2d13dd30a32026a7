// Package gen builds the five datasets of the paper's evaluation
// (§III). The synthetic dataset follows the published recipe exactly;
// the four real-world datasets (UCI Communities & Crime, the European
// mammals atlas, the German socio-economics data and the Slovenian
// water quality data) are third-party downloads unavailable offline, so
// each is replaced by a seeded synthetic replica that matches the
// paper's dimensions and the statistical structure its experiments rely
// on. DESIGN.md §3 documents each substitution.
package gen

import (
	"math"

	"repro/internal/dataset"
)

// Default seeds so that the examples, tests, benchmarks and the golden
// figures of TestFiguresGolden (internal/experiments/testdata/golden/)
// all see the same data.
const (
	SeedSynthetic = 620
	SeedCrime     = 1994
	SeedMammals   = 2220
	SeedSocio     = 412
	SeedWater     = 1060
)

// clamp limits x to [lo, hi].
func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// sigmoid is the logistic function.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// binaryColumn builds a Binary column with levels {"0","1"}.
func binaryColumn(name string, values []float64) dataset.Column {
	return dataset.Column{
		Name: name, Kind: dataset.Binary, Values: values,
		Levels: []string{"0", "1"},
	}
}

// numColumn builds a Numeric column.
func numColumn(name string, values []float64) dataset.Column {
	return dataset.Column{Name: name, Kind: dataset.Numeric, Values: values}
}
