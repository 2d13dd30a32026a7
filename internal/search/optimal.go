package search

import (
	"fmt"
	"math"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/si"
)

// OptimalResult is the outcome of the exact location-pattern search.
type OptimalResult struct {
	Intention pattern.Intention
	Extension *bitset.Set
	SI, IC    float64
	// Explored counts evaluated nodes; Pruned counts subtrees cut by the
	// admissible bound.
	Explored, Pruned int
}

// OptimalLocation1D finds the location pattern with globally maximal SI
// for a single real-valued target under a fresh background model (every
// point shares the prior N(mu, sigma2)) — the exact search the paper's
// conclusion singles out as "the most relevant question to be addressed
// in the future" (§V). It is Exhaustive with a one-entry log over the
// SI scorer of that model, so its optimum is bit-identical to the top
// of an unpruned Exhaustive run, and the scorer's own bound (DESIGN §9)
// prunes the walk. Non-positive depth, splits and support mean 4, 4
// and 2. It returns an error for a dataset with more than one target,
// a non-positive prior variance or invalid DL parameters.
func OptimalLocation1D(ds *dataset.Dataset, mu, sigma2 float64, p si.Params,
	maxDepth, numSplits, minSupport int) (*OptimalResult, error) {
	if ds.Dy() != 1 {
		return nil, fmt.Errorf("search: OptimalLocation1D needs exactly one target, dataset has %d", ds.Dy())
	}
	if !(sigma2 > 0) {
		return nil, fmt.Errorf("search: OptimalLocation1D needs a positive variance, got %v", sigma2)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("search: OptimalLocation1D: %w", err)
	}
	m, err := background.New(ds.N(), mat.Vec{mu}, &mat.Dense{R: 1, C: 1, Data: []float64{sigma2}})
	if err != nil {
		return nil, fmt.Errorf("search: OptimalLocation1D: %w", err)
	}
	sc, err := si.NewLocationScorer(m, ds.Y, p)
	if err != nil {
		return nil, fmt.Errorf("search: OptimalLocation1D: %w", err)
	}
	res := Exhaustive(ds, sc, Params{
		MaxDepth: maxDepth, NumSplits: numSplits, MinSupport: minSupport, TopK: 1,
	})
	out := &OptimalResult{SI: math.Inf(-1), Explored: res.Evaluated, Pruned: res.Pruned}
	if top := res.Top(); top != nil {
		out.Intention, out.Extension = top.Intention, top.Extension
		out.SI, out.IC = top.SI, top.IC
	}
	return out, nil
}
