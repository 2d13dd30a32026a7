package sisd_test

import (
	"fmt"

	sisd "repro"
	"repro/internal/gen"
)

// ExampleNewMiner demonstrates the complete iterative mining loop on
// the paper's synthetic benchmark: mine, inspect, commit, repeat.
func ExampleNewMiner() {
	ds := sisd.GenerateSynthetic(620)
	m, err := sisd.NewMiner(ds, sisd.Config{
		SI:     sisd.SIParams{Gamma: 0.5, Eta: 1},
		Search: sisd.SearchParams{MaxDepth: 2},
	})
	if err != nil {
		panic(err)
	}
	for iter := 1; iter <= 3; iter++ {
		loc, _, err := m.MineLocation()
		if err != nil {
			panic(err)
		}
		fmt.Printf("iteration %d: %s (size %d)\n",
			iter, loc.Intention.Format(ds), loc.Size())
		if err := m.CommitLocation(loc); err != nil {
			panic(err)
		}
	}
	// Output:
	// iteration 1: a5 = '1' (size 40)
	// iteration 2: a3 = '1' (size 40)
	// iteration 3: a4 = '1' (size 40)
}

// ExampleDiverseTopK shows how to extract a portfolio of distinct
// subgroups from a single search log.
func ExampleDiverseTopK() {
	ds := sisd.GenerateSynthetic(620)
	m, err := sisd.NewMiner(ds, sisd.Config{
		Search: sisd.SearchParams{MaxDepth: 2},
	})
	if err != nil {
		panic(err)
	}
	_, log, err := m.MineLocation()
	if err != nil {
		panic(err)
	}
	for _, f := range sisd.DiverseTopK(log, 3, 0.5) {
		fmt.Printf("%s (size %d)\n", f.Intention.Format(ds), f.Size)
	}
	// Output:
	// a5 = '1' (size 40)
	// a3 = '1' (size 40)
	// a4 = '1' (size 40)
}

// Example_waterQuality follows examples/waterquality, the river water
// case study of Figs. 9–10: mine the top bioindicator rule, explain
// its most surprising chemistry, commit it, mine its spread pattern,
// then commit the spread too and mine the next location pattern
// against the updated background model.
func Example_waterQuality() {
	ds := sisd.GenerateWaterQualityLike(1060)
	m, err := sisd.NewMiner(ds, sisd.Config{
		Search: sisd.SearchParams{MaxDepth: 2, BeamWidth: 20},
	})
	if err != nil {
		panic(err)
	}
	loc, _, err := m.MineLocation()
	if err != nil {
		panic(err)
	}
	fmt.Printf("top pattern: %s (size %d)\n", loc.Intention.Format(ds), loc.Size())
	expl, err := m.ExplainLocation(loc)
	if err != nil {
		panic(err)
	}
	for _, e := range expl[:3] {
		fmt.Printf("  %s observed %.2f expected %.2f\n", e.Target, e.Observed, e.Expected)
	}
	if err := m.CommitLocation(loc); err != nil {
		panic(err)
	}
	sp, err := m.MineSpread(loc)
	if err != nil {
		panic(err)
	}
	expVar, err := m.Model.ExpectedSpread(sp.Extension, sp.W, sp.Center)
	if err != nil {
		panic(err)
	}
	fmt.Printf("spread variance: observed %.2f expected %.2f\n", sp.Variance, expVar)
	if err := m.CommitSpread(sp); err != nil {
		panic(err)
	}
	next, _, err := m.MineLocation()
	if err != nil {
		panic(err)
	}
	fmt.Printf("next pattern: %s (size %d)\n", next.Intention.Format(ds), next.Size())
	// Output:
	// top pattern: Amphipoda_Gammarus_fossarum <= 1 AND Oligochaeta_Tubifex >= 3 (size 195)
	//   k2cr2o7 observed 19.53 expected 13.26
	//   nh4 observed 1.16 expected 0.64
	//   po4 observed 0.72 expected 0.41
	// spread variance: observed 12.98 expected 3.83
	// next pattern: Oligochaeta_Tubifex <= 0 (size 268)
}

// Example_crime follows examples/crime, the introductory scenario of
// Fig. 1: on the crime replica, the paper's default beam (width 40,
// depth 4) finds the districts whose violent-crime rate deviates most
// from what the user expects.
func Example_crime() {
	ds := sisd.GenerateCrimeLike(gen.SeedCrime)
	m, err := sisd.NewMiner(ds, sisd.Config{})
	if err != nil {
		panic(err)
	}
	loc, _, err := m.MineLocation()
	if err != nil {
		panic(err)
	}
	crime := ds.TargetColumn(0)
	var inside, overall float64
	loc.Extension.ForEach(func(i int) { inside += crime[i] })
	for _, c := range crime {
		overall += c
	}
	fmt.Printf("top pattern: %s\n", loc.Intention.Format(ds))
	fmt.Printf("covers %.4g of districts; crime mean %.4g inside vs %.4g overall (SI %.4g)\n",
		float64(loc.Size())/float64(ds.N()), inside/float64(loc.Size()), overall/float64(ds.N()), loc.SI)
	// Output:
	// top pattern: PctIlleg >= 0.391049
	// covers 0.2001 of districts; crime mean 0.5098 inside vs 0.2487 overall (SI 531.4)
}
