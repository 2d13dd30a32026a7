package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/search"
	"repro/internal/stats"
)

// The mammals replica is memoized per seed: the generator is a pure
// function of its seed and this experiment treats the replica as
// read-only, so repeated regenerations (tests, benchmarks, a server
// rerunning the experiment) skip the costly generation — and, because
// the condition-language cache is keyed by dataset identity, the
// percentile splits, extensions and per-condition target sums are
// reused too.
var (
	mammalsMu   sync.Mutex
	mammalsSeed int64
	mammalsMemo *gen.Mammals
)

func mammalsFor(seed int64) *gen.Mammals {
	mammalsMu.Lock()
	defer mammalsMu.Unlock()
	if mammalsMemo == nil || mammalsSeed != seed {
		mammalsMemo = gen.MammalsLike(seed)
		mammalsSeed = seed
	}
	return mammalsMemo
}

// MammalIteration is one iteration of the Figs. 4–6 experiment: a
// location pattern on the mammals replica, with its geographic footprint
// and the species that make it surprising.
type MammalIteration struct {
	Intention string
	Size      int
	SI, IC    float64
	// MeanLat/MeanLon summarize the geographic footprint of the
	// extension (the paper renders maps; we report the centroid and
	// latitude range).
	MeanLat, MeanLon float64
	LatLo, LatHi     float64
	// TopSpecies are the five most surprising species (Fig. 5): observed
	// vs expected presence rate with the 95% CI of the background model.
	TopSpecies []core.AttrExplanation
}

// Fig456Mammals runs three iterations of location-pattern mining on the
// mammals replica (spread patterns are skipped: the paper notes they are
// uninformative for binary targets, §III-B). quick shrinks the beam for
// tests.
func Fig456Mammals(seed int64, quick bool) ([]MammalIteration, error) {
	ma := mammalsFor(seed)
	sp := searchParams(search.Params{MaxDepth: 2, BeamWidth: 10})
	if quick {
		sp = searchParams(search.Params{MaxDepth: 1, BeamWidth: 5})
	}
	m, err := core.NewMiner(ma.DS, core.Config{Search: sp})
	if err != nil {
		return nil, err
	}
	var out []MammalIteration
	for iter := 0; iter < 3; iter++ {
		loc, _, err := m.MineLocation()
		if err != nil {
			return nil, err
		}
		var latW, lonW stats.Welford
		latLo, latHi := 91.0, -91.0
		loc.Extension.ForEach(func(i int) {
			latW.Add(ma.Lat[i])
			lonW.Add(ma.Lon[i])
			if ma.Lat[i] < latLo {
				latLo = ma.Lat[i]
			}
			if ma.Lat[i] > latHi {
				latHi = ma.Lat[i]
			}
		})
		expl, err := m.ExplainLocation(loc)
		if err != nil {
			return nil, err
		}
		if len(expl) > 5 {
			expl = expl[:5]
		}
		out = append(out, MammalIteration{
			Intention:  loc.Intention.Format(ma.DS),
			Size:       loc.Size(),
			SI:         loc.SI,
			IC:         loc.IC,
			MeanLat:    latW.Mean(),
			MeanLon:    lonW.Mean(),
			LatLo:      latLo,
			LatHi:      latHi,
			TopSpecies: expl,
		})
		if err := m.CommitLocation(loc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RenderFig456 formats the mammal iterations.
func RenderFig456(iters []MammalIteration) string {
	var b strings.Builder
	b.WriteString("Figs. 4–6 — mammals replica, top location pattern per iteration\n")
	for i, it := range iters {
		fmt.Fprintf(&b, "\niteration %d: %s\n", i+1, it.Intention)
		fmt.Fprintf(&b, "  size=%d SI=%.4g IC=%.4g  footprint: lat %.1f..%.1f (centroid %.1f°N, %.1f°E)\n",
			it.Size, it.SI, it.IC, it.LatLo, it.LatHi, it.MeanLat, it.MeanLon)
		t := &table{header: []string{"species", "observed", "expected", "95% CI"}}
		for _, e := range it.TopSpecies {
			t.add(e.Target, f3(e.Observed), f3(e.Expected),
				fmt.Sprintf("[%.3f, %.3f]", e.CI95Lo, e.CI95Hi))
		}
		b.WriteString(t.String())
	}
	return b.String()
}
