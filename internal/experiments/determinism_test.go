package experiments

import (
	"reflect"
	"testing"

	"repro/internal/gen"
)

// The experiments must be fully deterministic: same seed, same results,
// independent of scheduling — TestFiguresGolden and the golden files in
// testdata/golden/ depend on it.

func TestFig2Deterministic(t *testing.T) {
	a, err := Fig2Synthetic(gen.SeedSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig2Synthetic(gen.SeedSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Fig2Synthetic not deterministic")
	}
}

func TestTableIDeterministic(t *testing.T) {
	a, err := TableISynthetic(gen.SeedSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TableISynthetic(gen.SeedSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("TableISynthetic not deterministic")
	}
}

func TestFig78Deterministic(t *testing.T) {
	a, err := Fig78SocioEconomics(gen.SeedSocio)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig78SocioEconomics(gen.SeedSocio)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Intention != b[i].Intention || a[i].SpreadVariance != b[i].SpreadVariance {
			t.Fatalf("iteration %d differs between runs", i)
		}
	}
}
