package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/randx"
	"repro/internal/search"
	"repro/internal/si"
)

// tableIGamma is the description-length weight that reproduces the
// published Table I numbers (the text says γ=0.1 but the table is only
// internally consistent with γ=0.5; see DESIGN.md §2).
var tableIGamma = si.Params{Gamma: 0.5, Eta: 1}

func syntheticMiner(seed int64) (*core.Miner, *gen.Synthetic, error) {
	syn := gen.Synthetic620(seed)
	m, err := core.NewMiner(syn.DS, core.Config{
		SI:     tableIGamma,
		Search: searchParams(search.Params{MaxDepth: 3}),
	})
	return m, syn, err
}

// Fig2Iteration is one iteration of the Fig. 2 experiment: the top
// pattern (location + spread) mined from the synthetic data.
type Fig2Iteration struct {
	Intention      string
	Size           int
	ClusterMatched int // which embedded cluster the extension equals (-1 = none)
	LocationSI     float64
	Center         [2]float64
	W              [2]float64
	SpreadVariance float64
	SpreadSI       float64
	// AxisOverlap is |⟨w, planted main axis⟩| ∨ |⟨w, planted cross axis⟩|:
	// 1 means the direction recovered a planted principal axis exactly.
	AxisOverlap float64
}

// Fig2Synthetic runs the two-step mining process for three iterations on
// the synthetic data, as in §III-A, committing the top location and
// spread pattern each time.
func Fig2Synthetic(seed int64) ([]Fig2Iteration, error) {
	m, syn, err := syntheticMiner(seed)
	if err != nil {
		return nil, err
	}
	var out []Fig2Iteration
	for iter := 0; iter < 3; iter++ {
		step, err := m.Step(true)
		if err != nil {
			return nil, err
		}
		loc, sp := step.Location, step.Spread
		it := Fig2Iteration{
			Intention:      loc.Intention.Format(m.DS),
			Size:           loc.Size(),
			ClusterMatched: matchCluster(syn, loc),
			LocationSI:     loc.SI,
			Center:         [2]float64{loc.Mean[0], loc.Mean[1]},
			W:              [2]float64{sp.W[0], sp.W[1]},
			SpreadVariance: sp.Variance,
			SpreadSI:       sp.SI,
		}
		if it.ClusterMatched >= 0 {
			main := syn.Directions[it.ClusterMatched]
			cross := []float64{-main[1], main[0]}
			it.AxisOverlap = math.Max(
				math.Abs(sp.W[0]*main[0]+sp.W[1]*main[1]),
				math.Abs(sp.W[0]*cross[0]+sp.W[1]*cross[1]))
		}
		out = append(out, it)
	}
	return out, nil
}

func matchCluster(syn *gen.Synthetic, loc *pattern.Location) int {
	for c, idx := range syn.Clusters {
		if len(idx) != loc.Size() {
			continue
		}
		all := true
		for _, i := range idx {
			if !loc.Extension.Contains(i) {
				all = false
				break
			}
		}
		if all {
			return c
		}
	}
	return -1
}

// RenderFig2 formats the iterations.
func RenderFig2(iters []Fig2Iteration) string {
	var b strings.Builder
	b.WriteString("Fig. 2 — synthetic data, top pattern per iteration\n")
	t := &table{header: []string{"iter", "intention", "size", "cluster",
		"loc SI", "w", "var", "axis overlap"}}
	for i, it := range iters {
		t.add(fmt.Sprint(i+1), it.Intention, fmt.Sprint(it.Size),
			fmt.Sprint(it.ClusterMatched), f2(it.LocationSI),
			fmt.Sprintf("(%.3f,%.3f)", it.W[0], it.W[1]),
			f3(it.SpreadVariance), f3(it.AxisOverlap))
	}
	b.WriteString(t.String())
	return b.String()
}

// TableIRow tracks the SI of one iteration-1 pattern across iterations.
type TableIRow struct {
	Intention string
	Size      int
	SI        []float64 // SI at iteration 1..k
}

// TableISynthetic reproduces Table I: the top-10 location patterns of
// the first iteration, re-scored under the background model of each of
// the four iterations (the model is updated with the top location and
// spread pattern after iterations 1–3).
func TableISynthetic(seed int64) ([]TableIRow, error) {
	m, _, err := syntheticMiner(seed)
	if err != nil {
		return nil, err
	}
	loc, log, err := m.MineLocation()
	if err != nil {
		return nil, err
	}
	n := 10
	if len(log.Patterns) < n {
		n = len(log.Patterns)
	}
	rows := make([]TableIRow, n)
	tracked := make([]pattern.Intention, n)
	for i := 0; i < n; i++ {
		f := log.Patterns[i]
		rows[i] = TableIRow{
			Intention: f.Intention.Format(m.DS),
			Size:      f.Size,
			SI:        []float64{f.SI},
		}
		tracked[i] = f.Intention
	}

	for iter := 2; iter <= 4; iter++ {
		// Commit the current iteration's top pattern (two-step, as §III-A).
		if err := m.CommitLocation(loc); err != nil {
			return nil, err
		}
		sp, err := m.MineSpread(loc)
		if err != nil {
			return nil, err
		}
		if err := m.CommitSpread(sp); err != nil {
			return nil, err
		}
		// Re-score all tracked intentions under the updated model.
		for i := range rows {
			re, err := m.ScoreLocationIntention(tracked[i])
			if err != nil {
				return nil, err
			}
			rows[i].SI = append(rows[i].SI, re.SI)
		}
		if iter < 4 {
			loc, _, err = m.MineLocation()
			if err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// RenderTableI formats the rows like the paper's Table I.
func RenderTableI(rows []TableIRow) string {
	var b strings.Builder
	b.WriteString("Table I — change in SI for the top patterns over four iterations (γ=0.5)\n")
	t := &table{header: []string{"intention", "size", "SI iter1", "iter2", "iter3", "iter4"}}
	for _, r := range rows {
		cells := []string{r.Intention, fmt.Sprint(r.Size)}
		for _, s := range r.SI {
			cells = append(cells, f2(s))
		}
		t.add(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig3Point is one noise level of the Fig. 3 robustness experiment.
type Fig3Point struct {
	Distortion float64
	// SI of the subgroup induced by each corrupted true description
	// (attributes a3, a4, a5), averaged over repeats.
	SI [3]float64
	// Baseline is the mean SI of random subgroups of matched size.
	Baseline float64
}

// Fig3Noise corrupts the binary descriptors with increasing flip
// probability and reports how the SI of the three true descriptions
// degrades, against a random-subgroup baseline (Fig. 3 of the paper).
func Fig3Noise(seed int64, repeats int) ([]Fig3Point, error) {
	if repeats <= 0 {
		repeats = 3
	}
	syn := gen.Synthetic620(seed)
	m, err := core.NewMiner(syn.DS, core.Config{
		SI:     tableIGamma,
		Search: searchParams(search.Params{}),
	})
	if err != nil {
		return nil, err
	}
	var out []Fig3Point
	for _, p := range []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35} {
		pt := Fig3Point{Distortion: p}
		var sizeSum, sizeN int
		for rep := 0; rep < repeats; rep++ {
			noisy := gen.CorruptDescriptors(syn.DS, p, seed+int64(1000*p)+int64(rep))
			for a := 0; a < 3; a++ {
				in := pattern.Intention{{Attr: a, Op: pattern.EQ, Level: 1}}
				ext := in.Extension(noisy)
				if ext.Count() == 0 {
					continue
				}
				yhat := pattern.SubgroupMean(syn.DS.Y, ext)
				s, _, err := si.LocationSI(m.Model, ext, yhat, 1, tableIGamma)
				if err != nil {
					continue
				}
				pt.SI[a] += s / float64(repeats)
				sizeSum += ext.Count()
				sizeN++
			}
		}
		size := 40
		if sizeN > 0 {
			size = sizeSum / sizeN
		}
		pt.Baseline = randomSubgroupSI(m.Model, syn.DS.Y, size, 20,
			tableIGamma, seed+7)
		out = append(out, pt)
	}
	return out, nil
}

// randomSubgroupSI estimates the SI a "meaningless" subgroup of the
// given size achieves under the model — the baseline curve of Fig. 3 —
// by averaging the location SI of `repeats` uniformly drawn extensions.
func randomSubgroupSI(m background.Reader, y *mat.Dense, size, repeats int, p si.Params, seed int64) float64 {
	src := randx.New(seed)
	n := y.R
	var total float64
	cnt := 0
	for r := 0; r < repeats; r++ {
		perm := src.Perm(n)
		ext := bitset.New(n)
		for _, i := range perm[:size] {
			ext.Add(i)
		}
		yhat := pattern.SubgroupMean(y, ext)
		s, _, err := si.LocationSI(m, ext, yhat, 1, p)
		if err != nil {
			continue
		}
		total += s
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return total / float64(cnt)
}

// RenderFig3 formats the noise sweep.
func RenderFig3(points []Fig3Point) string {
	var b strings.Builder
	b.WriteString("Fig. 3 — SI of the true descriptions under descriptor noise\n")
	t := &table{header: []string{"distortion", "SI a3", "SI a4", "SI a5", "baseline"}}
	for _, p := range points {
		t.add(f2(p.Distortion), f2(p.SI[0]), f2(p.SI[1]), f2(p.SI[2]), f2(p.Baseline))
	}
	b.WriteString(t.String())
	return b.String()
}
