package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/stats"
)

// TableIIDataset names one column group of Table II.
type TableIIDataset struct {
	Name string // GSE, WQ, Cr, Ma
	DS   *dataset.Dataset
}

// tableIIDatasets builds the four datasets with the paper's dimensions:
// German socio-economics (412×13×5), water quality (1060×14×16), crime
// (1994×122×1) and mammals (2220×67×124). It optionally skips the
// mammals replica — the most expensive one to generate — so runs that
// do not time its column are not charged for building it.
func tableIIDatasets(includeMammals bool) []TableIIDataset {
	out := []TableIIDataset{
		{Name: "GSE", DS: gen.SocioEconLike(gen.SeedSocio).DS},
		{Name: "WQ", DS: gen.WaterQualityLike(gen.SeedWater).DS},
		{Name: "Cr", DS: gen.CrimeLike(gen.SeedCrime).DS},
	}
	if includeMammals {
		out = append(out, TableIIDataset{Name: "Ma", DS: gen.MammalsLike(gen.SeedMammals).DS})
	}
	return out
}

// TableIIResult records background-update runtimes, in seconds, exactly
// as Table II lays them out: the initial fit, then one row per
// iteration of incorporating an additional pattern, separately for
// location and spread patterns.
type TableIIResult struct {
	Names []string
	// Init[d] is the time to fit the initial MaxEnt distribution.
	Init []float64
	// Location[d][k] is the time of the k-th location-pattern commit.
	Location [][]float64
	// Spread[d][k] is the time of the k-th spread-pattern commit (the
	// paper omits the mammals column here; we include it when feasible).
	Spread [][]float64
	// Sweeps[d][k] records the coordinate-descent sweeps of the k-th
	// location commit, explaining the growth pattern.
	Sweeps [][]int
}

// patternsForRuntime collects up to iters location patterns with
// limited pairwise overlap (Jaccard ≤ 0.7): first from a beam search
// log (the realistic source), then — because the log's top patterns
// often select near-identical subgroups — from the elementary condition
// language, which covers diverse slices of the data. The paper notes
// that its own experiments only commit patterns with limited overlaps
// (iterative mining makes redundant subgroups uninteresting), which is
// also what keeps the coordinate descent fast.
//
// The collection beam runs at width 10 (the width the repo's other
// drivers and mining benchmarks use) rather than the paper's full
// Cortana width: Table II times the background *updates*, and the
// collection pass only needs a log of diverse high-SI subgroups, which
// the narrower beam's top-K already provides. The caller passes the
// dataset's empirical moments so the prior is not recomputed per model.
func patternsForRuntime(ds *dataset.Dataset, iters int, mu mat.Vec, cov *mat.Dense) ([]*bitset.Set, []mat.Vec, error) {
	m, err := core.NewMiner(ds, core.Config{
		Search:    searchParams(search.Params{MaxDepth: 2, BeamWidth: 10, TopK: 30 * iters}),
		PriorMean: mu,
		PriorCov:  cov,
	})
	if err != nil {
		return nil, nil, err
	}
	_, log, err := m.MineLocation()
	if err != nil {
		return nil, nil, err
	}

	var exts []*bitset.Set
	var means []mat.Vec
	tryAdd := func(ext *bitset.Set, mean mat.Vec) bool {
		cnt := ext.Count()
		if cnt < 2 {
			return false
		}
		for _, e := range exts {
			inter := e.IntersectCount(ext)
			union := e.Count() + cnt - inter
			if union == 0 || float64(inter)/float64(union) > 0.7 {
				return false
			}
		}
		exts = append(exts, ext)
		means = append(means, mean)
		return true
	}
	for _, f := range log.Patterns {
		if tryAdd(f.Extension, f.Mean) && len(exts) == iters {
			break
		}
	}
	// Top up from the elementary condition language — through the
	// engine's cached Language, whose extensions and per-condition
	// target sums already exist from the collection mine, instead of
	// re-enumerating conditions and rebuilding every extension bitset.
	if len(exts) < iters {
		lang := engine.LanguageFor(ds, 4)
		sums, sizes := lang.CondTargetStats()
		for ci, ext := range lang.Exts {
			if sizes[ci] == 0 {
				continue
			}
			mean := sums[ci].Clone().Scale(1 / float64(sizes[ci]))
			if tryAdd(ext, mean) && len(exts) == iters {
				break
			}
		}
	}
	if len(exts) == 0 {
		return nil, nil, fmt.Errorf("experiments: no patterns for %s", ds.Name)
	}
	return exts, means, nil
}

// TableIIRuntime measures the background-update runtimes for the four
// datasets over the given number of iterations (the paper uses 20, with
// the mammals location column stopped at 10).
func TableIIRuntime(iters int, includeMammals bool) (*TableIIResult, error) {
	if iters <= 0 {
		iters = 20
	}
	dss := tableIIDatasets(includeMammals)
	res := &TableIIResult{}
	for _, d := range dss {
		res.Names = append(res.Names, d.Name)

		// Initial fit: empirical moments + MaxEnt model construction.
		start := time.Now()
		mu := stats.MeanVec(d.DS.Y, nil)
		cov := stats.CovMat(d.DS.Y, nil)
		model, err := background.New(d.DS.N(), mu, cov)
		if err != nil {
			return nil, fmt.Errorf("experiments: init %s: %w", d.Name, err)
		}
		res.Init = append(res.Init, time.Since(start).Seconds())

		exts, means, err := patternsForRuntime(d.DS, iters, mu, cov)
		if err != nil {
			return nil, err
		}

		// Location-pattern updates: commit the patterns one by one.
		locTimes := make([]float64, 0, len(exts))
		sweeps := make([]int, 0, len(exts))
		mammalsIterCap := len(exts)
		if d.Name == "Ma" && mammalsIterCap > 10 {
			mammalsIterCap = 10 // the paper stops the Ma column at 10
		}
		for k := 0; k < mammalsIterCap; k++ {
			start = time.Now()
			if err := model.CommitLocation(exts[k], means[k]); err != nil {
				return nil, fmt.Errorf("experiments: commit %s #%d: %w", d.Name, k, err)
			}
			locTimes = append(locTimes, time.Since(start).Seconds())
			sweeps = append(sweeps, model.LastSweeps)
		}
		res.Location = append(res.Location, locTimes)
		res.Sweeps = append(res.Sweeps, sweeps)

		// Spread-pattern updates, reported independently as in the paper:
		// a fresh model accumulates only spread constraints (each a
		// rank-1 precision update along the subgroup's leading scatter
		// direction, with the subgroup's empirical mean as the constant
		// center), so the column isolates the low-rank update cost.
		if d.Name == "Ma" {
			// The paper's Table II has no Ma spread column.
			res.Spread = append(res.Spread, nil)
			continue
		}
		model2, err := background.New(d.DS.N(), mu, cov)
		if err != nil {
			return nil, err
		}
		spTimes := make([]float64, 0, len(exts))
		for k := range exts {
			w := leadingDirection(d.DS.Y, exts[k], means[k])
			vhat := pattern.SubgroupVariance(d.DS.Y, exts[k], means[k], w)
			if vhat <= 0 {
				continue
			}
			start = time.Now()
			if err := model2.CommitSpread(exts[k], w, means[k], vhat); err != nil {
				return nil, fmt.Errorf("experiments: spread commit %s #%d: %w", d.Name, k, err)
			}
			spTimes = append(spTimes, time.Since(start).Seconds())
		}
		res.Spread = append(res.Spread, spTimes)
	}
	return res, nil
}

// leadingDirection returns the top eigenvector of the subgroup scatter.
func leadingDirection(y *mat.Dense, ext *bitset.Set, center mat.Vec) mat.Vec {
	s := pattern.SubgroupScatter(y, ext, center)
	_, vecs, err := mat.SymEig(s)
	if err != nil {
		w := make(mat.Vec, y.C)
		w[0] = 1
		return w
	}
	w := make(mat.Vec, y.C)
	for i := range w {
		w[i] = vecs.At(i, 0)
	}
	return w.Normalize()
}

// Render formats the runtimes like the paper's Table II (seconds).
func (r *TableIIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table II — background-update runtimes (seconds)\n")
	header := []string{"iteration"}
	for _, n := range r.Names {
		header = append(header, "loc "+n)
	}
	for i, n := range r.Names {
		if r.Spread[i] != nil {
			header = append(header, "spr "+n)
		}
	}
	t := &table{header: header}
	row := []string{"init"}
	for _, v := range r.Init {
		row = append(row, fmt.Sprintf("%.5f", v))
	}
	for i := range r.Names {
		if r.Spread[i] != nil {
			row = append(row, "")
		}
	}
	t.add(row...)
	maxIters := 0
	for _, l := range r.Location {
		if len(l) > maxIters {
			maxIters = len(l)
		}
	}
	for _, s := range r.Spread {
		if len(s) > maxIters {
			maxIters = len(s)
		}
	}
	for k := 0; k < maxIters; k++ {
		row := []string{fmt.Sprint(k + 1)}
		for _, l := range r.Location {
			if k < len(l) {
				row = append(row, fmt.Sprintf("%.5f", l[k]))
			} else {
				row = append(row, "-")
			}
		}
		for i := range r.Names {
			if r.Spread[i] == nil {
				continue
			}
			if k < len(r.Spread[i]) {
				row = append(row, fmt.Sprintf("%.5f", r.Spread[i][k]))
			} else {
				row = append(row, "-")
			}
		}
		t.add(row...)
	}
	b.WriteString(t.String())
	return b.String()
}
