// Command sisd is the interactive mining CLI: it loads a dataset from
// CSV (header cells "name:role:kind", role d/t, kind num/ord/cat/bin)
// and runs iterative subjectively-interesting subgroup discovery,
// printing one location pattern (and optionally one spread pattern) per
// iteration.
//
// Usage:
//
//	sisd -data crime.csv -iters 3 -spread -gamma 0.1 -depth 4 -beam 40
//	sisd -builtin synthetic -iters 3 -spread -gamma 0.5
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	sisd "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sisd: ")

	var (
		dataPath = flag.String("data", "", "dataset CSV path (see Dataset.WriteCSV format)")
		arffPath = flag.String("arff", "", "dataset ARFF path (Weka/Cortana format; requires -targets)")
		targets  = flag.String("targets", "", "comma-separated target attribute names for -arff")
		builtin  = flag.String("builtin", "", "use a built-in replica instead of -data: synthetic|crime|mammals|socio|water")
		seed     = flag.Int64("seed", 1, "seed for -builtin generators")
		iters    = flag.Int("iters", 3, "mining iterations")
		spread   = flag.Bool("spread", false, "also mine a spread pattern per iteration")
		pair     = flag.Bool("pair-sparse", false, "restrict spread directions to two target attributes")
		gamma    = flag.Float64("gamma", 0.1, "description length per condition (γ)")
		eta      = flag.Float64("eta", 1, "description length base cost (η)")
		beam     = flag.Int("beam", 40, "beam width")
		depth    = flag.Int("depth", 4, "maximum conditions per description")
		topk     = flag.Int("topk", 150, "search log size")
		minsup   = flag.Int("minsupport", 2, "minimum subgroup size")
		splits   = flag.Int("splits", 4, "percentile split points per numeric attribute")
		parallel = flag.Int("parallel", 0, "candidate-evaluation workers (0 = all cores)")
		timeout  = flag.Duration("timeout", 0, "search time budget per iteration (0 = none)")
		explain  = flag.Int("explain", 5, "print the k most surprising target attributes per pattern (0 = off)")
		optimal  = flag.Bool("optimal", false, "single-target datasets only: find the globally optimal first pattern by branch-and-bound instead of beam search")
		verbose  = flag.Bool("v", false, "print per-iteration search diagnostics (SI-bound pruning counters; counts vary with scheduling)")
	)
	flag.Parse()

	ds, err := loadDataset(*dataPath, *arffPath, *targets, *builtin, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %q: n=%d, %d description attributes, %d targets\n",
		ds.Name, ds.N(), ds.Dx(), ds.Dy())

	cfg := sisd.Config{
		SI: sisd.SIParams{Gamma: *gamma, Eta: *eta},
		Search: sisd.SearchParams{
			BeamWidth: *beam, MaxDepth: *depth, TopK: *topk,
			MinSupport: *minsup, NumSplits: *splits, Parallelism: *parallel,
		},
		Spread: sisd.SpreadParams{PairSparse: *pair},
	}
	m, err := sisd.NewMiner(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *optimal {
		// The search itself rejects anything but one target with positive
		// variance; a dataset without targets has no column to summarise.
		var mean, variance float64
		if ds.Dy() > 0 {
			mean, variance = meanVariance(ds.TargetColumn(0))
		}
		start := time.Now()
		opt, err := sisd.MineOptimalLocation1D(ds, mean, variance,
			cfg.SI, *depth, *splits, *minsup)
		if err != nil {
			log.Fatalf("-optimal: %v", err)
		}
		fmt.Printf("\n=== globally optimal pattern (branch & bound, %v, %d nodes, %d pruned) ===\n",
			time.Since(start).Round(time.Millisecond), opt.Explored, opt.Pruned)
		fmt.Printf("%s  (size=%d, SI=%.4g, IC=%.4g)\n",
			opt.Intention.Format(ds), opt.Extension.Count(), opt.SI, opt.IC)
		return
	}

	for it := 1; it <= *iters; it++ {
		if *timeout > 0 {
			m.Cfg.Search.Deadline = time.Now().Add(*timeout)
		}
		loc, logRes, err := m.MineLocation()
		if err != nil {
			if errors.Is(err, sisd.ErrNoPattern) && logRes != nil && logRes.TimedOut {
				log.Fatalf("iteration %d: -timeout %v expired before any candidate was scored; increase the budget", it, *timeout)
			}
			log.Fatalf("iteration %d: %v", it, err)
		}
		fmt.Printf("\n=== iteration %d (evaluated %d candidates", it, logRes.Evaluated)
		// Pruning counts depend on worker scheduling, so they stay out of
		// the default output, which is byte-identical at any -parallel.
		if *verbose && logRes.Pruned > 0 {
			fmt.Printf(", %d pruned by SI bounds", logRes.Pruned)
		}
		if logRes.TimedOut {
			fmt.Printf(", timed out")
		}
		fmt.Printf(") ===\n")
		fmt.Printf("location: %s\n", loc.Format(ds))
		if *explain > 0 {
			expl, err := m.ExplainLocation(loc)
			if err == nil {
				k := *explain
				if k > len(expl) {
					k = len(expl)
				}
				for _, e := range expl[:k] {
					fmt.Printf("  %-28s observed %8.3f  expected %8.3f  95%% CI [%.3f, %.3f]\n",
						e.Target, e.Observed, e.Expected, e.CI95Lo, e.CI95Hi)
				}
			}
		}
		if err := m.CommitLocation(loc); err != nil {
			log.Fatalf("commit location: %v", err)
		}
		if *spread {
			sp, err := m.MineSpread(loc)
			if err != nil {
				log.Fatalf("spread: %v", err)
			}
			fmt.Printf("spread:   %s\n", sp.Format(ds))
			if err := m.CommitSpread(sp); err != nil {
				log.Fatalf("commit spread: %v", err)
			}
		}
	}
}

// meanVariance returns the mean and population variance of col
// (Welford's one-pass update): the fresh model's prior on the target.
func meanVariance(col []float64) (mean, variance float64) {
	var m2 float64
	for i, v := range col {
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	return mean, m2 / float64(len(col))
}

func loadDataset(path, arffPath, targets, builtin string, seed int64) (*sisd.Dataset, error) {
	sources := 0
	for _, s := range []string{path, arffPath, builtin} {
		if s != "" {
			sources++
		}
	}
	if sources > 1 {
		return nil, fmt.Errorf("use exactly one of -data, -arff, -builtin")
	}
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sisd.ReadCSV(f)
	case arffPath != "":
		if targets == "" {
			return nil, fmt.Errorf("-arff requires -targets name1,name2,...")
		}
		f, err := os.Open(arffPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sisd.ReadARFF(f, strings.Split(targets, ","))
	case builtin != "":
		switch strings.ToLower(builtin) {
		case "synthetic":
			return sisd.GenerateSynthetic(seed), nil
		case "crime":
			return sisd.GenerateCrimeLike(seed), nil
		case "mammals":
			return sisd.GenerateMammalsLike(seed), nil
		case "socio":
			return sisd.GenerateSocioEconLike(seed), nil
		case "water":
			return sisd.GenerateWaterQualityLike(seed), nil
		default:
			return nil, fmt.Errorf("unknown builtin %q", builtin)
		}
	default:
		return nil, fmt.Errorf("need -data FILE, -arff FILE -targets ..., or -builtin NAME (try -builtin synthetic)")
	}
}
