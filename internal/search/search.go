// Package search implements the subgroup search strategies of §II-D of
// the paper: a level-wise beam search over conjunctions of conditions
// (the strategy of the Cortana tool the paper builds on — beam width 40,
// search depth 4, top-150 log, optional time budget in the paper's
// experiments), and an exhaustive enumerator used as a test oracle and
// for small datasets.
//
// The strategies are thin drivers over the shared candidate-evaluation
// pipeline of package engine: cached condition extensions, pooled
// scratch bitsets, reused candidate arenas and bounded top-k logs. The
// search is generic over a Scorer, so both the SI measure and the
// baseline quality measures (package baseline) run on the same engine.
package search

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/pattern"
)

// Scorer evaluates a candidate subgroup extension described by numConds
// conditions. ok=false rejects the candidate (too small, degenerate...).
// Implementations must be safe for concurrent use and must not retain
// the extension, which is engine-owned scratch.
type Scorer = engine.Scorer

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
	// a scoring pass. Diagnostics only: which candidates get pruned
	// depends on goroutine scheduling (the shared floor rises at
	// different speeds run to run), so these vary across runs even
	// though Patterns never does.
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
func Beam(ds *dataset.Dataset, sc Scorer, p Params) *Results {
	p = p.withDefaults()
	lang := engine.LanguageFor(ds, p.NumSplits)
	// The beam consumes a bounded prefix of every level: BeamWidth
	// parents plus whatever can still enter the TopK log. Selecting that
	// prefix instead of sorting the whole level keeps the long tail of
	// thousands of scored-but-doomed candidates out of the sort, and —
	// because the prefix holds the exact top entries in order — the log
	// accepts them first and rejects everything behind them with one
	// heap-root compare each.
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
	// evaluator score the level from its precomputed depth-1
	// sufficient-statistics table with no bitset passes at all. The
	// evaluator's one columnar batch is reused across all levels (and,
	// through Release, across searches): its streams only ever grow to
	// the high-water candidate count.
	batch := ev.Batch()
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

		// Batch results are unmaterialized; only the candidates that
		// actually enter the log or seed the next beam pay the
		// extension/mean clones — everything else on the level stays
		// allocation-free.
		for i := range level {
			s := &level[i]
			if top.WouldAccept(s.SI, s.Ids) {
				ev.Materialize(batch, s)
				top.Add(*s)
			}
		}

		// New beam: best BeamWidth of this level (level is sorted).
		beam := level
		if len(beam) > p.BeamWidth {
			beam = beam[:p.BeamWidth]
		}
		if depth == p.MaxDepth {
			break
		}
		for i := range beam {
			ev.Materialize(batch, &beam[i])
		}

		// Expand the beam with every condition not already present;
		// duplicate intentions (reached via different parents) are dropped
		// here, before they cost a scoring pass. Materialize cloned the
		// beam entries' Ids and extensions out of the batch, so resetting
		// it for the next level is safe (the Scored structs themselves live
		// in the evaluator's result buffer, untouched until the next
		// EvaluateBatch) — and grouping refinements by parent is what lets
		// the evaluator amortize one bound preparation per parent run.
		batch.Expand(depth+1, beam, len(lang.Conds))
	}

	st := ev.Stats()
	res.BoundEvals = int(st.BoundEvals)
	res.Pruned = int(st.Pruned)
	res.Patterns = patterns(lang, top.Sorted())
	return res
}

// Exhaustive enumerates every conjunction of up to maxDepth distinct
// conditions (each condition used at most once, order-free) and scores
// all of them. Exponential — use only on small datasets and as the
// oracle the beam is tested against. Non-positive arguments mean the
// paper defaults (depth 4, 4 splits, support 2, top-150), matching
// Beam's convention.
func Exhaustive(ds *dataset.Dataset, sc Scorer, maxDepth, numSplits, minSupport, topK int) *Results {
	return ExhaustiveP(ds, sc, Params{
		MaxDepth:   maxDepth,
		NumSplits:  numSplits,
		MinSupport: minSupport,
		TopK:       topK,
	})
}

// ExhaustiveP is Exhaustive configured by Params (BeamWidth and
// Parallelism are ignored; the enumeration is sequential and complete).
// A Deadline marks the results TimedOut when the walk is cut short.
func ExhaustiveP(ds *dataset.Dataset, sc Scorer, p Params) *Results {
	p = p.withDefaults()
	lang := engine.LanguageFor(ds, p.NumSplits)
	res := &Results{}
	top := engine.NewTopK(p.TopK)
	// With a worker-capable scorer the whole walk scores through
	// reusable scratch; the worker's mean is cloned only for candidates
	// that actually enter the log.
	score := sc.Score
	usingWorker := false
	if ws, ok := sc.(engine.WorkerScorer); ok {
		score = ws.NewWorker().Score
		usingWorker = true
	}
	res.TimedOut = lang.Enumerate(engine.EnumOptions{
		MaxDepth:   p.MaxDepth,
		MinSupport: p.MinSupport,
		Deadline:   p.Deadline,
	}, func(ids []engine.CondID, ext *bitset.Set, size int) bool {
		res.Evaluated++
		if len(ids) > res.Levels {
			res.Levels = len(ids)
		}
		si, ic, mean, ok := score(ext, len(ids))
		if ok && top.WouldAccept(si, ids) {
			if usingWorker {
				mean = mean.Clone()
			}
			top.Add(engine.Scored{
				Ids:  append([]engine.CondID(nil), ids...),
				Ext:  ext.Clone(),
				Size: size,
				SI:   si, IC: ic,
				Mean: mean,
			})
		}
		return true
	})
	res.Patterns = patterns(lang, top.Sorted())
	return res
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
