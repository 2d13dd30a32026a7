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

// Example_waterQuality follows the river water quality case study of
// §III-D (Figs. 9–10): mine the top bioindicator rule, explain
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

// Example_crime follows the introductory scenario of Fig. 1: on the
// crime replica, the paper's default beam (width 40, depth 4) finds the
// districts whose violent-crime rate deviates most from what the user
// expects.
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

// Example_quickstart mines the single most subjectively interesting
// subgroup of the paper's synthetic data (§III-A), shows it, and shows
// that once the user has seen it the same pattern is no longer
// interesting.
func Example_quickstart() {
	// 620 points, two real-valued targets, three embedded clusters
	// labeled by the binary descriptors a3, a4, a5.
	ds := sisd.GenerateSynthetic(620)

	// A zero config means: prior beliefs = empirical mean and covariance
	// of the targets, γ=0.1, η=1, beam width 40, depth 4.
	m, err := sisd.NewMiner(ds, sisd.Config{})
	if err != nil {
		panic(err)
	}

	// Step 1: the most informative location pattern.
	loc, searchLog, err := m.MineLocation()
	if err != nil {
		panic(err)
	}
	fmt.Println("most interesting subgroup:")
	fmt.Println(" ", loc.Format(ds))
	fmt.Printf("  (beam search scored %d candidate descriptions)\n\n", searchLog.Evaluated)

	// Step 2: commit it — the background model absorbs the information.
	if err := m.CommitLocation(loc); err != nil {
		panic(err)
	}

	// Step 3: the same description is now worthless to the user...
	re, err := m.ScoreLocationIntention(loc.Intention)
	if err != nil {
		panic(err)
	}
	fmt.Printf("after committing, its SI collapses: %.2f -> %.2f\n", loc.SI, re.SI)

	// ...and the next search surfaces something genuinely new.
	next, _, err := m.MineLocation()
	if err != nil {
		panic(err)
	}
	fmt.Println("\nnext most interesting subgroup:")
	fmt.Println(" ", next.Format(ds))
	// Output:
	// most interesting subgroup:
	//   a5 = '1'  (size=40, SI=60.28, IC=66.31, DL=1.1)
	//   (beam search scored 331 candidate descriptions)
	//
	// after committing, its SI collapses: 60.28 -> -1.51
	//
	// next most interesting subgroup:
	//   a3 = '1'  (size=40, SI=59.6, IC=65.56, DL=1.1)
}

// Example_iterative runs the paper's §III-A protocol on the synthetic
// data: three two-step iterations (location, then spread), printing how
// the SI of the first iteration's top patterns collapses once they are
// committed (Table I of the paper).
func Example_iterative() {
	ds := sisd.GenerateSynthetic(620)
	m, err := sisd.NewMiner(ds, sisd.Config{
		// Table I of the paper uses γ=0.5 (see DESIGN.md §2).
		SI:     sisd.SIParams{Gamma: 0.5, Eta: 1},
		Search: sisd.SearchParams{MaxDepth: 3},
	})
	if err != nil {
		panic(err)
	}

	// Iteration 1: log the top 10 patterns, then track them.
	loc, searchLog, err := m.MineLocation()
	if err != nil {
		panic(err)
	}
	n := min(10, len(searchLog.Patterns))
	tracked := make([]sisd.Intention, n)
	fmt.Println("top-10 patterns of iteration 1:")
	for i := 0; i < n; i++ {
		f := searchLog.Patterns[i]
		tracked[i] = f.Intention
		fmt.Printf("  %2d. %-34s size=%3d SI=%7.2f\n",
			i+1, f.Intention.Format(ds), f.Size, f.SI)
	}

	for iter := 1; iter <= 3; iter++ {
		fmt.Printf("\n--- committing iteration-%d top pattern: %s ---\n",
			iter, loc.Intention.Format(ds))
		if err := m.CommitLocation(loc); err != nil {
			panic(err)
		}
		sp, err := m.MineSpread(loc)
		if err != nil {
			panic(err)
		}
		fmt.Printf("spread: %s\n", sp.Format(ds))
		if err := m.CommitSpread(sp); err != nil {
			panic(err)
		}

		fmt.Println("tracked SIs now:")
		for i, in := range tracked {
			re, err := m.ScoreLocationIntention(in)
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %2d. %-34s SI=%7.2f\n", i+1, in.Format(ds), re.SI)
		}
		if iter < 3 {
			if loc, _, err = m.MineLocation(); err != nil {
				panic(err)
			}
		}
	}
	// Output:
	// top-10 patterns of iteration 1:
	//    1. a5 = '1'                           size= 40 SI=  44.21
	//    2. a3 = '1'                           size= 40 SI=  43.71
	//    3. a4 = '1'                           size= 40 SI=  42.59
	//    4. a3 = '0' AND a5 = '1'              size= 40 SI=  33.15
	//    5. a4 = '0' AND a5 = '1'              size= 40 SI=  33.15
	//    6. a3 = '1' AND a4 = '0'              size= 40 SI=  32.78
	//    7. a3 = '1' AND a5 = '0'              size= 40 SI=  32.78
	//    8. a3 = '0' AND a4 = '1'              size= 40 SI=  31.95
	//    9. a4 = '1' AND a5 = '0'              size= 40 SI=  31.95
	//   10. a3 = '0' AND a4 = '0' AND a5 = '1' size= 40 SI=  26.52
	//
	// --- committing iteration-1 top pattern: a5 = '1' ---
	// spread: a5 = '1'  w=(0.870,-0.493) var=0.009648  (size=40, SI=28.98, IC=72.45, DL=2.5)
	// tracked SIs now:
	//    1. a5 = '1'                           SI=  -2.73
	//    2. a3 = '1'                           SI=  43.71
	//    3. a4 = '1'                           SI=  42.59
	//    4. a3 = '0' AND a5 = '1'              SI=  -2.05
	//    5. a4 = '0' AND a5 = '1'              SI=  -2.05
	//    6. a3 = '1' AND a4 = '0'              SI=  32.78
	//    7. a3 = '1' AND a5 = '0'              SI=  32.78
	//    8. a3 = '0' AND a4 = '1'              SI=  31.95
	//    9. a4 = '1' AND a5 = '0'              SI=  31.95
	//   10. a3 = '0' AND a4 = '0' AND a5 = '1' SI=  -1.64
	//
	// --- committing iteration-2 top pattern: a3 = '1' ---
	// spread: a3 = '1'  w=(0.015,1.000) var=0.00929  (size=40, SI=28.52, IC=71.3, DL=2.5)
	// tracked SIs now:
	//    1. a5 = '1'                           SI=  -2.73
	//    2. a3 = '1'                           SI=  -2.72
	//    3. a4 = '1'                           SI=  42.59
	//    4. a3 = '0' AND a5 = '1'              SI=  -2.05
	//    5. a4 = '0' AND a5 = '1'              SI=  -2.05
	//    6. a3 = '1' AND a4 = '0'              SI=  -2.04
	//    7. a3 = '1' AND a5 = '0'              SI=  -2.04
	//    8. a3 = '0' AND a4 = '1'              SI=  31.95
	//    9. a4 = '1' AND a5 = '0'              SI=  31.95
	//   10. a3 = '0' AND a4 = '0' AND a5 = '1' SI=  -1.64
	//
	// --- committing iteration-3 top pattern: a4 = '1' ---
	// spread: a4 = '1'  w=(0.886,0.464) var=0.01164  (size=40, SI=27.23, IC=68.08, DL=2.5)
	// tracked SIs now:
	//    1. a5 = '1'                           SI=  -2.73
	//    2. a3 = '1'                           SI=  -2.72
	//    3. a4 = '1'                           SI=  -2.66
	//    4. a3 = '0' AND a5 = '1'              SI=  -2.05
	//    5. a4 = '0' AND a5 = '1'              SI=  -2.05
	//    6. a3 = '1' AND a4 = '0'              SI=  -2.04
	//    7. a3 = '1' AND a5 = '0'              SI=  -2.04
	//    8. a3 = '0' AND a4 = '1'              SI=  -1.99
	//    9. a4 = '1' AND a5 = '0'              SI=  -1.99
	//   10. a3 = '0' AND a4 = '0' AND a5 = '1' SI=  -1.64
}

// Example_election follows the socio-economics case study of §III-C
// (Figs. 7–8). The targets are the 2009 vote shares of five parties per
// district; the descriptors are age and workforce statistics. Each
// iteration shows a location pattern, the per-party surprise ranking,
// and a 2-sparse spread pattern: the pair of parties whose covariation
// within the subgroup deviates most from the model's expectation.
func Example_election() {
	ds := sisd.GenerateSocioEconLike(412)
	m, err := sisd.NewMiner(ds, sisd.Config{
		Search: sisd.SearchParams{MaxDepth: 2},
		// Like the paper, enforce 2-sparsity on w for interpretability:
		// optimize over every pair of parties and keep the best.
		Spread: sisd.SpreadParams{PairSparse: true},
	})
	if err != nil {
		panic(err)
	}

	for iter := 1; iter <= 3; iter++ {
		loc, _, err := m.MineLocation()
		if err != nil {
			panic(err)
		}
		fmt.Printf("=== iteration %d ===\n", iter)
		fmt.Printf("location: %s\n", loc.Format(ds))

		expl, err := m.ExplainLocation(loc)
		if err != nil {
			panic(err)
		}
		fmt.Println("party-level surprise (observed vs expected vote share):")
		for _, e := range expl {
			marker := " "
			if e.Observed < e.CI95Lo || e.Observed > e.CI95Hi {
				marker = "!"
			}
			fmt.Printf("  %s %-11s observed %5.1f  expected %5.1f  95%% CI [%5.1f, %5.1f]\n",
				marker, e.Target, e.Observed, e.Expected, e.CI95Lo, e.CI95Hi)
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
		var pair []string
		for j, w := range sp.W {
			if w != 0 {
				pair = append(pair, fmt.Sprintf("%s:%.3f", ds.TargetNames[j], w))
			}
		}
		verdict := "smaller"
		if sp.Variance > expVar {
			verdict = "larger"
		}
		fmt.Printf("spread: %v — variance %.2f vs expected %.2f (%s than expected)\n\n",
			pair, sp.Variance, expVar, verdict)
		if err := m.CommitSpread(sp); err != nil {
			panic(err)
		}
	}
	// Output:
	// === iteration 1 ===
	// location: children_pop <= 13.9306 AND wf_finance <= 4.2916  (size=75, SI=128.1, IC=153.7, DL=1.2)
	// party-level surprise (observed vs expected vote share):
	//   ! LEFT_2009   observed  27.5  expected  11.0  95% CI [  9.2,  12.9]
	//   ! FDP_2009    observed   8.2  expected  12.4  95% CI [ 11.8,  13.1]
	//   ! GREEN_2009  observed   5.8  expected   9.9  95% CI [  9.1,  10.7]
	//   ! CDU_2009    observed  30.0  expected  33.7  95% CI [ 32.5,  34.9]
	//   ! SPD_2009    observed  21.0  expected  22.1  95% CI [ 21.1,  23.1]
	// spread: [CDU_2009:0.714 SPD_2009:0.700] — variance 0.20 vs expected 17.91 (smaller than expected)
	//
	// === iteration 2 ===
	// location: wf_agriculture <= 2.35192 AND wf_finance >= 4.2916  (size=62, SI=104.6, IC=125.5, DL=1.2)
	// party-level surprise (observed vs expected vote share):
	//   ! GREEN_2009  observed  16.1  expected   9.9  95% CI [  9.0,  10.8]
	//   ! CDU_2009    observed  27.7  expected  33.7  95% CI [ 32.4,  35.0]
	//   ! FDP_2009    observed  11.1  expected  12.4  95% CI [ 11.7,  13.2]
	//   ! SPD_2009    observed  23.7  expected  22.1  95% CI [ 21.0,  23.2]
	//   ! LEFT_2009   observed   8.3  expected  11.0  95% CI [  9.0,  13.1]
	// spread: [SPD_2009:-0.152 LEFT_2009:0.988] — variance 1.52 vs expected 67.45 (smaller than expected)
	//
	// === iteration 3 ===
	// location: children_pop >= 16.0098  (size=247, SI=44.27, IC=48.7, DL=1.1)
	// party-level surprise (observed vs expected vote share):
	//   ! FDP_2009    observed  13.9  expected  12.4  95% CI [ 12.0,  12.8]
	//   ! LEFT_2009   observed   7.1  expected  11.0  95% CI [  9.9,  12.0]
	//   ! CDU_2009    observed  35.9  expected  33.6  95% CI [ 32.9,  34.2]
	//     GREEN_2009  observed   9.8  expected  10.0  95% CI [  9.6,  10.5]
	//     SPD_2009    observed  22.0  expected  22.1  95% CI [ 21.6,  22.7]
	// spread: [GREEN_2009:-0.197 LEFT_2009:0.980] — variance 2.08 vs expected 69.36 (smaller than expected)
}

// Example_mammals follows the biogeography case study of §III-B
// (Figs. 4–6). The targets are 124 binary species-presence indicators
// on a grid of 2220 European cells; the descriptors are 67 climate
// indicators. Each iteration finds a climate condition whose region
// hosts a surprising species community, prints the region's latitude
// and longitude bounds and centroid (the paper draws it as the map of
// Fig. 6), and lists the most surprising species with their observed
// and expected presence rates (Fig. 5). Spread patterns are skipped:
// for binary targets the variance is determined by the mean (§III-B).
func Example_mammals() {
	ma := gen.MammalsLike(gen.SeedMammals)
	m, err := sisd.NewMiner(ma.DS, sisd.Config{
		Search: sisd.SearchParams{MaxDepth: 2, BeamWidth: 10},
	})
	if err != nil {
		panic(err)
	}

	for iter := 1; iter <= 3; iter++ {
		loc, _, err := m.MineLocation()
		if err != nil {
			panic(err)
		}
		fmt.Printf("=== iteration %d: %s ===\n", iter, loc.Intention.Format(ma.DS))
		fmt.Printf("covers %d of %d cells, SI=%.4g\n\n", loc.Size(), ma.DS.N(), loc.SI)

		latLo, latHi, lonLo, lonHi := 90.0, -90.0, 180.0, -180.0
		var latSum, lonSum float64
		loc.Extension.ForEach(func(i int) {
			latLo, latHi = min(latLo, ma.Lat[i]), max(latHi, ma.Lat[i])
			lonLo, lonHi = min(lonLo, ma.Lon[i]), max(lonHi, ma.Lon[i])
			latSum += ma.Lat[i]
			lonSum += ma.Lon[i]
		})
		size := float64(loc.Size())
		fmt.Printf("region: lat %.1f..%.1f, lon %.1f..%.1f (centroid %.1f°N, %.1f°E)\n",
			latLo, latHi, lonLo, lonHi, latSum/size, lonSum/size)

		expl, err := m.ExplainLocation(loc)
		if err != nil {
			panic(err)
		}
		fmt.Println("\nmost surprising species (presence rate, o=observed e=expected):")
		for _, e := range expl[:5] {
			fmt.Printf("%-22s obs %.3g exp %.3g\n", e.Target, e.Observed, e.Expected)
		}
		fmt.Println()

		if err := m.CommitLocation(loc); err != nil {
			panic(err)
		}
	}
	// Output:
	// === iteration 1: mean_temp_oct <= 6.01974 ===
	// covers 444 of 2220 cells, SI=275.4
	//
	// region: lat 60.0..71.0, lon -10.0..30.0 (centroid 67.5°N, 9.8°E)
	//
	// most surprising species (presence rate, o=observed e=expected):
	// meridional_species_071 obs 0.0518 exp 0.656
	// boreal_species_080     obs 0.619 exp 0.159
	// meridional_species_036 obs 0.0586 exp 0.657
	// meridional_species_061 obs 0.0698 exp 0.664
	// meridional_species_031 obs 0.0518 exp 0.646
	//
	// === iteration 2: avg_rain_q1 <= 52.5084 ===
	// covers 444 of 2220 cells, SI=99.88
	//
	// region: lat 35.0..71.0, lon 3.3..30.0 (centroid 47.5°N, 24.0°E)
	//
	// most surprising species (presence rate, o=observed e=expected):
	// riparian_species_122   obs 0.36 exp 0.687
	// riparian_species_042   obs 0.509 exp 0.776
	// riparian_species_082   obs 0.448 exp 0.73
	// riparian_species_002   obs 0.428 exp 0.714
	// riparian_species_117   obs 0.412 exp 0.7
	//
	// === iteration 3: avg_rain_nov >= 59.387 AND mean_temp_q1 >= 7.08548 ===
	// covers 691 of 2220 cells, SI=23.71
	//
	// region: lat 35.0..57.0, lon -10.0..27.8 (centroid 43.4°N, 2.7°E)
	//
	// most surprising species (presence rate, o=observed e=expected):
	// meridional_species_051 obs 0.919 exp 0.547
	// meridional_species_001 obs 0.964 exp 0.602
	// meridional_species_066 obs 0.925 exp 0.564
	// meridional_species_026 obs 0.964 exp 0.61
	// meridional_species_096 obs 0.945 exp 0.589
}
