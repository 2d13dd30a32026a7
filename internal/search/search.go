// Package search implements the subgroup search strategies of §II-D of
// the paper: a level-wise beam search over conjunctions of conditions
// (the strategy of the Cortana tool the paper builds on — beam width 40,
// search depth 4, top-150 log, optional time budget in the paper's
// experiments), and the exact search: an enumeration of the whole
// language, pruned by the scorer's admissible bound, that serves as the
// beam's test oracle and as the exact optimum the paper's §V asks for.
//
// The strategies are thin drivers over the shared candidate-evaluation
// pipeline of package engine: cached condition extensions, pooled
// scratch bitsets, reused candidate arenas and bounded top-k logs. The
// strategies take any engine.Scorer; production scores with the SI
// measure (si.LocationScorer).
package search

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/pattern"
)

// Params configure the beam search. The zero value is completed by
// sensible defaults matching the paper's experimental setup.
type Params struct {
	BeamWidth   int       // candidates kept per level (default 40)
	MaxDepth    int       // maximum number of conditions (default 4)
	TopK        int       // size of the global result log (default 150)
	NumSplits   int       // percentile split points per numeric attr (default 4)
	MinSupport  int       // minimum subgroup size (default 2)
	Deadline    time.Time // zero means no time budget
	Parallelism int       // worker goroutines (default GOMAXPROCS)
	// NoPrune disables admissible SI bound pruning. Pruning never changes
	// results (the bounds are admissible and verified so by property
	// tests); the switch exists for ablation benchmarks and as an escape
	// hatch.
	NoPrune bool
}

// withDefaults completes the strategy-level settings. The engine-level
// ones (MinSupport, Parallelism) are deliberately left alone: their
// defaults live in exactly one place, engine.Options/EnumOptions.
func (p Params) withDefaults() Params {
	if p.BeamWidth <= 0 {
		p.BeamWidth = 40
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 4
	}
	if p.TopK <= 0 {
		p.TopK = 150
	}
	if p.NumSplits <= 0 {
		p.NumSplits = 4
	}
	return p
}

// Found is one scored subgroup.
type Found struct {
	Intention pattern.Intention
	Extension *bitset.Set
	Size      int
	SI, IC    float64
	Mean      mat.Vec // subgroup target mean (scorer-dependent)
}

// Results is the outcome of a search, sorted by SI descending.
type Results struct {
	Patterns []Found
	// Evaluated counts scored candidates; Levels the deepest depth at
	// which a candidate was actually evaluated.
	Evaluated int
	Levels    int
	// BoundEvals and Pruned count how many candidates had an admissible
	// SI upper bound computed and how many of those were skipped without
	// a scoring pass. Diagnostics only: in Beam, which candidates get
	// pruned depends on goroutine scheduling (the shared floor rises at
	// different speeds run to run), so these vary across runs even
	// though Patterns never does. Exhaustive is sequential: there they
	// count the nodes whose subtree was bounded and the subtrees cut.
	BoundEvals int
	Pruned     int
	// TimedOut reports whether the deadline cut the search short.
	TimedOut bool
}

// Top returns the best pattern, or nil if the search found nothing.
func (r *Results) Top() *Found {
	if len(r.Patterns) == 0 {
		return nil
	}
	return &r.Patterns[0]
}

// patterns converts a drained top-k log into the public result form,
// materializing intentions only for the patterns actually reported.
func patterns(lang *engine.Language, log []engine.Scored) []Found {
	out := make([]Found, len(log))
	for i, s := range log {
		out[i] = Found{
			Intention: lang.Intention(s.Ids),
			Extension: s.Ext,
			Size:      s.Size,
			SI:        s.SI, IC: s.IC,
			Mean: s.Mean,
		}
	}
	return out
}

// Beam runs the level-wise beam search over the dataset's condition
// language, scoring candidates with sc.
func Beam(ds *dataset.Dataset, sc engine.Scorer, p Params) *Results {
	p = p.withDefaults()
	lang := engine.LanguageFor(ds, p.NumSplits)
	// The beam consumes a bounded prefix of every level: BeamWidth
	// parents plus whatever can still enter the TopK log. The evaluator
	// returns only that prefix, chosen while the level is scored, so the
	// long tail of thousands of scored-but-doomed candidates is never
	// stored or sorted, and — because the prefix holds the exact top
	// entries in order — the log accepts them first and rejects
	// everything behind them with one heap-root compare each.
	selectTop := p.BeamWidth
	if p.TopK > selectTop {
		selectTop = p.TopK
	}
	ev := engine.NewEvaluator(lang, sc, engine.Options{
		Parallelism:   p.Parallelism,
		MinSupport:    p.MinSupport,
		Deadline:      p.Deadline,
		SelectTop:     selectTop,
		DisableBounds: p.NoPrune,
	})
	defer ev.Release()

	res := &Results{}
	top := engine.NewTopK(p.TopK)

	// Level 1 candidates: every elementary condition, refining the empty
	// intention. Its nil extension means the full dataset, which lets the
	// evaluator skip the intersection and score each candidate from its
	// condition's extension and Language-cached target sum. The
	// evaluator's one columnar batch is reused across all levels (and,
	// through Release, across searches): its streams only ever grow to
	// the high-water candidate count.
	batch := ev.Batch()
	ids := make([]engine.CondID, 0, p.MaxDepth) // a hit's intention, for the log
	var root [1]engine.Scored
	batch.Expand(1, root[:], len(lang.Conds))

	for depth := 1; depth <= p.MaxDepth; depth++ {
		if batch.Len() == 0 {
			break
		}
		if !p.Deadline.IsZero() && time.Now().After(p.Deadline) {
			res.TimedOut = true
			break
		}
		if depth == p.MaxDepth {
			// The final level's results only feed the top-k log, and the
			// log's acceptance floor never decreases — so a full log's
			// current k-th best SI is an admissible starting floor for the
			// level's bound pruning.
			if f, full := top.Floor(); full {
				ev.SeedFloor(f)
			}
		}
		level, expired := ev.EvaluateBatch(batch)
		if expired {
			res.TimedOut = true
			break
		}
		res.Evaluated += batch.Len()
		res.Levels = depth

		// Batch results are pointer-free Hits; only the candidates that
		// enter the log or seed the next beam pay the extension/mean
		// clones, once each even when they do both — everything else on
		// the level stays allocation-free. The next beam is the best
		// BeamWidth of the level (which is sorted).
		width := 0
		if depth < p.MaxDepth {
			width = min(p.BeamWidth, len(level))
		}
		beam := ev.Parents(width)
		for i, h := range level {
			ids = batch.AppendIDs(ids[:0], int(h.Cand))
			logged := top.WouldAccept(h.SI, ids)
			if !logged && i >= width {
				continue
			}
			s := ev.Materialize(batch, h)
			if logged {
				top.Add(s)
			}
			if i < width {
				beam = append(beam, s)
			}
		}
		if depth == p.MaxDepth {
			break
		}

		// Expand the beam with every condition not already present;
		// duplicate intentions (reached via different parents) are dropped
		// here, before they cost a scoring pass. The beam entries own their
		// Ids and extensions, so resetting the batch for the next level is
		// safe — and grouping refinements by parent is what lets the
		// evaluator amortize one bound preparation per parent run.
		batch.Expand(depth+1, beam, len(lang.Conds))
	}

	st := ev.Stats()
	res.BoundEvals = int(st.BoundEvals)
	res.Pruned = int(st.Pruned)
	res.Patterns = patterns(lang, top.Sorted())
	return res
}

// Exhaustive is the exact search: it enumerates every conjunction of up
// to MaxDepth distinct conditions (each used at most once, order-free)
// into a TopK log, and returns the same log an unpruned walk would.
// BeamWidth and Parallelism are ignored (the walk is sequential); a
// Deadline marks the results TimedOut when the walk is cut short.
// Exponential — the oracle the beam is tested against and the optimal
// search of the paper's §V.
//
// Unless NoPrune is set, a scorer with a BoundWorker prunes the walk
// with the beam's own admissible bound (DESIGN §9). Once the log is
// full, each node that may still be refined is prepared and its
// subtree bounded by
//
//	max(0, max over MinSupport ≤ k ≤ size of BoundSI(k, len(ids)+1)),
//
// inflated by the engine's bound slack; the subtree is cut only when
// that is strictly below the log's floor. Every refinement then scores
// strictly below the floor and could never enter the log, so pruning
// changes the work done (Evaluated, BoundEvals, Pruned) but never the
// Patterns. The log's tie order — SI descending, intention ascending —
// is the walk's pre-order, so among equal scores the first visited
// wins, as in a first-strictly-greater scan.
func Exhaustive(ds *dataset.Dataset, sc engine.Scorer, p Params) *Results {
	p = p.withDefaults()
	lang := engine.LanguageFor(ds, p.NumSplits)
	res := &Results{}
	top := engine.NewTopK(p.TopK)
	// The whole walk scores through one worker's reusable scratch; the
	// worker's mean is cloned only for candidates that enter the log.
	w := sc.NewWorker()
	var bw engine.BoundWorker
	if !p.NoPrune {
		bw = sc.NewBoundWorker()
	}
	var boundScratch []float64
	// The enumeration defaults an unset MinSupport; starting the size
	// range at 1 instead only loosens the bound.
	minSize := max(p.MinSupport, 1)
	res.TimedOut = lang.Enumerate(engine.EnumOptions{
		MaxDepth:   p.MaxDepth,
		MinSupport: p.MinSupport,
		Deadline:   p.Deadline,
	}, func(ids []engine.CondID, ext *bitset.Set, size int) bool {
		res.Evaluated++
		if len(ids) > res.Levels {
			res.Levels = len(ids)
		}
		si, ic, mean, ok := w.Score(ext, len(ids))
		if ok && top.WouldAccept(si, ids) {
			top.Add(engine.Scored{
				Ids:  append([]engine.CondID(nil), ids...),
				Ext:  ext.Clone(),
				Size: size,
				SI:   si, IC: ic,
				Mean: mean.Clone(),
			})
		}
		if bw == nil || !worthBounding(len(lang.Conds)-1-int(ids[len(ids)-1]), p.MaxDepth-len(ids)) {
			return true
		}
		floor, full := top.Floor()
		if !full || !bw.Prepare(ext, &boundScratch) {
			return true
		}
		res.BoundEvals++
		// Refinements have len(ids)+1 or more conditions. A deeper one's
		// bound is at most the shallowest one's or, when that is
		// negative, zero (see engine.BoundWorker).
		ub := 0.0
		for k := minSize; k <= size; k++ {
			ub = max(ub, bw.BoundSI(k, len(ids)+1))
		}
		if engine.InflateBound(ub) < floor {
			res.Pruned++
			return false
		}
		return true
	})
	res.Patterns = patterns(lang, top.Sorted())
	return res
}

// minBoundNodes is the fewest nodes that must lie below an exact-search
// node for preparing its bound to pay. A prepare (a sort of the node's
// residuals plus one BoundSI per size) costs about as much as scoring
// 20 nodes on BenchmarkOptimalBranchAndBound's planted replica, so a
// node with fewer nodes below it is cheaper to walk than to bound.
const minBoundNodes = 16

// worthBounding reports whether an exact-search node has at least
// minBoundNodes nodes below it. Its refinements draw on the rem
// conditions after its last one, over up to levels more levels, so at
// most Σ_{k=1..levels} C(rem, k) nodes lie below it. The rule affects
// only speed, never results.
func worthBounding(rem, levels int) bool {
	below, c := 0, 1
	for k := 1; k <= levels && k <= rem; k++ {
		c = c * (rem - k + 1) / k // C(rem, k)
		if below += c; below >= minBoundNodes {
			return true
		}
	}
	return false
}

// DiverseTopK greedily selects up to k patterns from a result log
// (which is sorted by SI) such that no two selected extensions overlap
// by more than maxJaccard. Iterative mining with model updates is the
// principled way to avoid redundancy; this is the cheap single-search
// alternative when the user wants a portfolio of distinct subgroups
// from one run.
func DiverseTopK(res *Results, k int, maxJaccard float64) []Found {
	if k <= 0 {
		return nil
	}
	var out []Found
	for _, f := range res.Patterns {
		ok := true
		for _, have := range out {
			inter := have.Extension.IntersectCount(f.Extension)
			union := have.Size + f.Size - inter
			if union == 0 || float64(inter)/float64(union) > maxJaccard {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, f)
		if len(out) == k {
			break
		}
	}
	return out
}
