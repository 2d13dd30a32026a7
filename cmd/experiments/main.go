// Command experiments regenerates every table and figure of the
// paper's evaluation section (§III) on the dataset replicas and prints
// the results as text tables. TestFiguresGolden pins each figure's
// output against internal/experiments/testdata/golden/.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -run fig1,tableII -tableII-iters 20
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/gen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		run      = flag.String("run", "all", "comma-separated list: fig1,fig2,tableI,fig3,fig456,fig78,fig910,tableII (or all)")
		iters    = flag.Int("tableII-iters", 20, "iterations for the Table II runtime experiment")
		mammals  = flag.Bool("tableII-mammals", true, "include the dy=124 mammals column in Table II")
		fig3Reps = flag.Int("fig3-repeats", 3, "noise repetitions per distortion level in Fig. 3")
		parallel = flag.Int("parallel", 0, "candidate-evaluation workers per beam search (0 = all cores)")
		quick    = flag.Bool("quick", false, "smaller search settings everywhere (for smoke runs)")
	)
	flag.Parse()
	experiments.Parallelism = *parallel

	want := map[string]bool{}
	for _, n := range strings.Split(strings.ToLower(*run), ",") {
		want[strings.TrimSpace(n)] = true
	}
	all := want["all"]
	section := func(name string) bool { return all || want[strings.ToLower(name)] }
	banner := func(name string) func() {
		start := time.Now()
		fmt.Printf("\n================ %s ================\n", name)
		return func() { fmt.Printf("[%s took %v]\n", name, time.Since(start).Round(time.Millisecond)) }
	}

	if section("fig1") {
		done := banner("Fig. 1")
		r, err := experiments.Fig1Crime(gen.SeedCrime, *quick)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(r.Render())
		done()
	}
	if section("fig2") {
		done := banner("Fig. 2")
		r, err := experiments.Fig2Synthetic(gen.SeedSynthetic)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderFig2(r))
		done()
	}
	if section("tableI") || section("table1") {
		done := banner("Table I")
		r, err := experiments.TableISynthetic(gen.SeedSynthetic)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderTableI(r))
		done()
	}
	if section("fig3") {
		done := banner("Fig. 3")
		r, err := experiments.Fig3Noise(gen.SeedSynthetic, *fig3Reps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderFig3(r))
		done()
	}
	if section("fig456") {
		done := banner("Figs. 4-6")
		r, err := experiments.Fig456Mammals(gen.SeedMammals, *quick)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderFig456(r))
		done()
	}
	if section("fig78") {
		done := banner("Figs. 7-8")
		r, err := experiments.Fig78SocioEconomics(gen.SeedSocio)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderFig78(r))
		done()
	}
	if section("fig910") {
		done := banner("Figs. 9-10")
		r, err := experiments.Fig910Water(gen.SeedWater)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(r.Render())
		done()
	}
	if section("tableII") || section("table2") {
		done := banner("Table II")
		it := *iters
		if *quick && it > 5 {
			it = 5
		}
		r, err := experiments.TableIIRuntime(it, *mammals && !*quick)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(r.Render())
		done()
	}
}
