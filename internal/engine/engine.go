// Package engine owns the candidate-evaluation pipeline shared by
// every subgroup search strategy: the beam search, the exhaustive
// oracle, the optimal branch-and-bound and the baseline quality
// searches all score candidates through this package.
//
// The pipeline is built to keep the steady-state hot path free of
// allocations: condition extensions are precomputed per dataset and
// cached (Language), each evaluation worker intersects into a pooled
// scratch bitset (bitset.AndCountInto) and only materializes an
// extension for candidates that survive support and scoring,
// intentions are canonical ascending condition-ID slices (no string
// keys), candidate batches and result buffers are reused across
// searches, and result logs are bounded top-k heaps rather than
// sort-and-truncate over the whole level.
package engine

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// Scorer evaluates a candidate subgroup extension described by numConds
// conditions. ok=false rejects the candidate (too small, degenerate...).
// Implementations must be safe for concurrent use and must not retain
// ext, which is worker-owned scratch.
type Scorer interface {
	Score(ext *bitset.Set, numConds int) (si, ic float64, mean mat.Vec, ok bool)
}

// ScorerWorker is a single-goroutine scoring context with reusable
// internal scratch: its steady-state Score path performs no heap
// allocations. The returned mean is worker-owned scratch, valid only
// until the worker's next call — callers clone what they retain.
type ScorerWorker interface {
	Score(ext *bitset.Set, numConds int) (si, ic float64, mean mat.Vec, ok bool)
}

// WorkerScorer is a Scorer that can mint independent per-goroutine
// workers. The engine gives each evaluation goroutine its own worker,
// making the whole batch-scoring path allocation-free.
type WorkerScorer interface {
	Scorer
	NewWorker() ScorerWorker
}

// StatScorerWorker scores a candidate directly from sufficient
// statistics — the per-group intersection counts of the extension and
// the sum of target rows over it — with no bitset pass at all. Both
// slices are caller-owned and must not be modified or retained. Workers
// must produce bit-identical results through Score and ScoreStats.
type StatScorerWorker interface {
	ScorerWorker
	ScoreStats(counts []int32, ysum mat.Vec, size, numConds int) (si, ic float64, mean mat.Vec, ok bool)
}

// GroupLabeler exposes a scorer's dense per-point group labeling so the
// evaluator can precompute per-condition sufficient statistics (the
// depth-1 table). Labels()[i] must index a fixed partition of the
// points into NumGroups() groups, matching the counts ScoreStats
// expects.
type GroupLabeler interface {
	NumGroups() int
	Labels() []int32
}

// BoundScorer is a Scorer that can also produce admissible SI upper
// bounds for candidate refinements, enabling the evaluator to skip the
// full scoring pass for candidates that provably cannot enter the
// consumed result prefix. NewBoundWorker returns nil when no bound is
// available for the current model/dataset shape (bounds are an
// optimization, never a requirement).
type BoundScorer interface {
	NewBoundWorker() BoundWorker
}

// BoundWorker is a single-goroutine bounding context. Prepare readies
// the worker for candidates refining one parent extension (amortized
// over the parent's whole run of candidates); BoundSI then returns, in
// O(1), an upper bound on the SI of ANY subset of the prepared parent
// with exactly the given size, described by numConds conditions. The
// bound must be admissible up to float rounding — the evaluator inflates
// it by a relative epsilon before comparing, and the search layer's
// property tests verify that no true SI ever exceeds the inflated bound.
type BoundWorker interface {
	Prepare(parent *bitset.Set) bool
	BoundSI(size, numConds int) float64
}

// Options configure an Evaluator.
type Options struct {
	Parallelism int       // worker goroutines (default GOMAXPROCS)
	MinSupport  int       // minimum subgroup size (default 2)
	Deadline    time.Time // zero means no time budget
	// SelectTop, when positive, relaxes EvaluateBatch's ordering
	// contract: only the first min(SelectTop, len) results are
	// guaranteed to be the best of the batch, in engine order; the rest
	// follow in unspecified order. Strategies that consume a bounded
	// prefix (beam width, top-k log) set it to skip sorting the long
	// tail of every level. The returned *set* of results is unchanged,
	// so anything order-insensitive (the bounded top-k log) sees
	// identical outcomes.
	//
	// SelectTop also arms bound pruning: with a BoundScorer, candidates
	// whose admissible SI upper bound falls strictly below the running
	// SelectTop-th best SI of the batch are dropped without scoring.
	// Such candidates can neither enter the consumed prefix nor any
	// bounded top-k log fed from it, so results are bit-identical to the
	// unpruned evaluation at every parallelism level.
	SelectTop int
	// DisableBounds turns bound pruning off even when the scorer
	// provides bounds — the ablation/debugging switch.
	DisableBounds bool
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 2
	}
	return o
}

// Batch is the columnar candidate arena for one search level: instead
// of a slice of per-candidate structs (parent pointer + condition +
// intention slice header each), a level is four flat streams — the
// distinct parent extensions in first-use order, a per-candidate parent
// index, a per-candidate condition, and one contiguous CondID arena
// holding every candidate's canonical intention at a fixed stride (all
// candidates of a level share one depth). The evaluation loop sweeps
// the streams in order, and a caller reuses one Batch across levels
// (Reset keeps the backing arrays), so steady-state level construction
// allocates nothing.
//
// Candidates sharing a parent must be appended contiguously (StartParent
// once, then Add per refinement) — the evaluator amortizes per-parent
// bound preparation over exactly these runs.
type Batch struct {
	depth    int
	parents  []*bitset.Set // distinct parents; nil means the full dataset
	parentOf []int32       // per candidate: index into parents
	conds    []CondID      // per candidate: the refining condition
	ids      []CondID      // intention arena, stride = depth
	used     []bool        // Expand scratch: conditions of earlier parents
}

// Reset clears the batch for a new level whose candidates all have
// depth conditions, keeping the backing arrays.
func (b *Batch) Reset(depth int) {
	if depth <= 0 {
		panic("engine: Batch depth must be positive")
	}
	b.depth = depth
	b.parents = b.parents[:0]
	b.parentOf = b.parentOf[:0]
	b.conds = b.conds[:0]
	b.ids = b.ids[:0]
}

// StartParent begins a run of candidates refining ext. A nil ext means
// the full dataset — the level-1 form that lets the evaluator skip the
// intersection entirely (the extension IS the condition's) and score
// from the precomputed depth-1 table when the scorer supports it.
func (b *Batch) StartParent(ext *bitset.Set) {
	b.parents = append(b.parents, ext)
}

// Add appends one candidate refining the current parent, whose
// canonical intention is parentIDs (ascending, length = the Reset depth
// − 1, not containing cond), with cond. The candidate's intention is
// written into the batch arena, so callers may pass scratch.
func (b *Batch) Add(cond CondID, parentIDs []CondID) {
	if len(b.parents) == 0 {
		panic("engine: Batch.Add before StartParent")
	}
	if len(parentIDs)+1 != b.depth {
		panic("engine: Batch.Add intention length != depth")
	}
	b.parentOf = append(b.parentOf, int32(len(b.parents)-1))
	b.conds = append(b.conds, cond)
	b.ids = InsertSorted(b.ids, parentIDs, cond)
}

// Expand resets the batch to the level refining beam: each parent in
// beam order (its materialized Ext; nil means the full dataset), then
// every condition below numConds that the parent lacks, ascending. The
// beam's intentions must be distinct and hold depth−1 conditions; a
// single zero Scored expands to the depth-1 level of every condition.
//
// A refinement X = Pᵢ ∪ {c} is dropped when an earlier parent Pⱼ (j < i)
// already generated it, i.e. when Pⱼ ⊂ X. Pⱼ ⊄ Pᵢ, so that needs c ∈ Pⱼ:
// only conditions marked as used by an earlier parent pay a subset scan
// over beam[:i], and every intention enters the batch exactly once, at
// its first parent.
func (b *Batch) Expand(depth int, beam []Scored, numConds int) {
	b.Reset(depth)
	if cap(b.used) < numConds {
		b.used = make([]bool, numConds)
	}
	used := b.used[:numConds]
	clear(used)
	for i := range beam {
		p := &beam[i]
		b.StartParent(p.Ext)
		for c := range used {
			id := CondID(c)
			if ContainsID(p.Ids, id) || used[c] && generatedBefore(beam[:i], p.Ids, id) {
				continue
			}
			b.Add(id, p.Ids)
		}
		for _, id := range p.Ids {
			used[id] = true
		}
	}
}

// generatedBefore reports whether some parent in earlier is a subset of
// ids ∪ {c}, i.e. already refines into that intention.
func generatedBefore(earlier []Scored, ids []CondID, c CondID) bool {
	for j := range earlier {
		if subsetOfPlus(earlier[j].Ids, ids, c) {
			return true
		}
	}
	return false
}

// Len returns the number of candidates in the batch.
func (b *Batch) Len() int { return len(b.conds) }

// IDs returns candidate i's canonical intention, aliasing the batch
// arena (valid until the next Reset).
func (b *Batch) IDs(i int) []CondID {
	d := b.depth
	return b.ids[i*d : (i+1)*d : (i+1)*d]
}

// Scored is one accepted (supported, scoreable) candidate. EvaluateBatch
// returns it *unmaterialized* — Ext and Mean are nil, Ids aliases the
// batch arena, and Cand indexes the candidate within its batch — so that
// candidates which never survive beam/log selection cost no allocations.
// Callers pass the survivors to Evaluator.Materialize, which fills Ext
// (an independent copy, safe to keep as a beam parent or result), Mean
// with values bit-identical to the ones scored, and replaces Ids with an
// owned copy that outlives the batch's next Reset.
type Scored struct {
	Ids    []CondID
	Cand   int
	Ext    *bitset.Set
	Size   int
	SI, IC float64
	Mean   mat.Vec
}

// better is the engine's total order on scored candidates: SI
// descending, canonical intention ascending as the deterministic
// tiebreak. Every strategy ranks with this one ordering, so beam,
// exhaustive and heap-based logs agree on ties.
func better(aSI float64, aIds []CondID, bSI float64, bIds []CondID) bool {
	if aSI != bSI {
		return aSI > bSI
	}
	return lessIDs(aIds, bIds)
}

// lessIDs compares canonical ID slices lexicographically.
func lessIDs(a, b []CondID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Evaluator scores batches of candidates against one Language and
// Scorer, reusing per-worker scratch bitsets (and, for WorkerScorers,
// per-worker scorer scratch) across batches. An Evaluator is cheap to
// create per search; it must not be shared between concurrent searches.
// A search Releases its evaluator when done, which hands the batch and
// result buffers on to the next search.
type Evaluator struct {
	*arena
	lang    *Language
	sc      Scorer
	opt     Options
	scratch []*bitset.Set
	full    *bitset.Set

	// workers[i] is goroutine i's scoring context when sc is a
	// WorkerScorer; nil entries fall back to the concurrent sc.Score.
	workers []ScorerWorker
	// statWorkers mirrors workers when they support stat scoring.
	statWorkers []StatScorerWorker
	// d1 is the depth-1 sufficient-statistics table: per-condition
	// per-group counts plus the Language-cached target sums, letting
	// level-1 candidates be scored with no bitset pass at all. Non-nil
	// only when the scorer exposes its group labeling.
	d1 *depthOneTable

	// bounds[i] is goroutine i's bound worker when sc is a BoundScorer
	// that offers bounds for this model; nil slice → no pruning.
	bounds []BoundWorker
	// floorKey is the shared SI floor for the current batch, encoded as
	// a monotone order key so a CAS-max works on the raw bits. Workers
	// publish their local SelectTop-th best SI here; candidates whose
	// inflated bound falls strictly below the floor are pruned.
	floorKey atomic.Uint64
	// floorHeaps[i] is goroutine i's reusable top-SelectTop SI min-heap.
	floorHeaps [][]float64
	// seedSI, when armed via SeedFloor, initializes the next batch's
	// floor instead of -Inf.
	seedSI  float64
	seedSet bool
	// ctrs is the reusable per-worker counter scratch (3 slots per
	// worker: scored, bound evals, pruned).
	ctrs []int64

	stats EvalStats
}

// arena is the buffer set that grows with a level's candidate count: the
// columnar Batch and EvaluateBatch's result buffers. Sets circulate
// through a process-wide free list — NewEvaluator takes one, Release
// parks it — so a warm search reuses the high-water buffers of earlier
// searches instead of regrowing its own.
type arena struct {
	batch Batch
	out   []Scored
	valid []bool
}

// arenas is the free list. It parks at most GOMAXPROCS sets, about as
// many searches as run at once, and leaves any surplus to the GC.
var arenas struct {
	sync.Mutex
	free []*arena
}

func takeArena() *arena {
	arenas.Lock()
	defer arenas.Unlock()
	n := len(arenas.free)
	if n == 0 {
		return &arena{}
	}
	a := arenas.free[n-1]
	arenas.free[n-1] = nil
	arenas.free = arenas.free[:n-1]
	return a
}

// Release parks the evaluator's buffers on the free list. The evaluator,
// its Batch and every slice EvaluateBatch returned are invalid after it.
// The batch's parent column and every result slot are cleared first, so
// a parked set keeps no extension, mean or intention alive.
func (e *Evaluator) Release() {
	a := e.arena
	if a == nil {
		return
	}
	e.arena = nil
	clear(a.batch.parents[:cap(a.batch.parents)])
	clear(a.out[:cap(a.out)])
	arenas.Lock()
	if len(arenas.free) < runtime.GOMAXPROCS(0) {
		arenas.free = append(arenas.free, a)
	}
	arenas.Unlock()
}

// Batch returns the evaluator's reusable candidate batch.
func (e *Evaluator) Batch() *Batch { return &e.batch }

// EvalStats are cumulative pruning observability counters. The counts
// depend on scheduling (which worker raises the shared floor first), so
// they vary run to run and across parallelism levels — they are
// diagnostics only and MUST NOT feed any result or decision that is
// expected to be deterministic.
type EvalStats struct {
	Scored     int64 // candidates fully scored
	BoundEvals int64 // candidates whose upper bound was evaluated
	Pruned     int64 // candidates skipped because bound < floor
}

// Stats returns the evaluator's cumulative counters.
func (e *Evaluator) Stats() EvalStats { return e.stats }

// SeedFloor arms the next EvaluateBatch with an initial SI floor. Only
// admissible when candidates below the floor are provably irrelevant to
// every consumer of that batch — the beam search uses it at the final
// level, seeding with its full top-k log's current k-th best SI (the
// level's results only feed the log there, and the log's floor never
// decreases).
func (e *Evaluator) SeedFloor(si float64) {
	e.seedSI = si
	e.seedSet = true
}

// orderKey maps a non-NaN float64 to a uint64 with the same total
// order, so an atomic CAS-max on the keys is a lock-free running max of
// the floats.
func orderKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyFloat inverts orderKey.
func keyFloat(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// raiseFloor lifts the shared floor to at least f.
func (e *Evaluator) raiseFloor(f float64) {
	k := orderKey(f)
	for {
		old := e.floorKey.Load()
		if old >= k || e.floorKey.CompareAndSwap(old, k) {
			return
		}
	}
}

// boundSlack is the relative inflation applied to SI upper bounds
// before comparing against the floor: the bound arithmetic (prefix
// sums, a different algebraic arrangement of the same IC) rounds
// differently from the scoring path by a few ulps, and the inflation
// keeps the comparison admissible despite that.
const boundSlack = 1e-9

// minBoundRun is the smallest per-worker run of same-parent candidates
// for which preparing a bound (a sort of the parent's residuals) is
// worth the setup; below it the evaluator scores the run unbounded.
// Affects only speed, never results.
const minBoundRun = 64

type depthOneTable struct {
	counts [][]int32 // per condition, per group: |ext(c) ∩ group|
	sums   []mat.Vec // per condition: Σ_{i∈ext(c)} yᵢ (Language-cached)
	sizes  []int     // per condition: |ext(c)| (Language-cached)
}

// NewEvaluator builds an evaluator over the language.
func NewEvaluator(lang *Language, sc Scorer, opt Options) *Evaluator {
	opt = opt.withDefaults()
	e := &Evaluator{arena: takeArena(), lang: lang, sc: sc, opt: opt}
	e.scratch = make([]*bitset.Set, opt.Parallelism)
	for i := range e.scratch {
		e.scratch[i] = bitset.New(lang.N)
	}
	e.full = bitset.Full(lang.N)
	if ws, ok := sc.(WorkerScorer); ok {
		e.workers = make([]ScorerWorker, opt.Parallelism)
		e.statWorkers = make([]StatScorerWorker, opt.Parallelism)
		allStat := true
		for i := range e.workers {
			w := ws.NewWorker()
			e.workers[i] = w
			if sw, ok := w.(StatScorerWorker); ok {
				e.statWorkers[i] = sw
			} else {
				allStat = false
			}
		}
		if gl, ok := sc.(GroupLabeler); ok && allStat {
			e.d1 = buildDepthOne(lang, gl)
		} else {
			e.statWorkers = nil
		}
	}
	if bs, ok := sc.(BoundScorer); ok && !opt.DisableBounds && opt.SelectTop > 0 {
		if w0 := bs.NewBoundWorker(); w0 != nil {
			e.bounds = make([]BoundWorker, opt.Parallelism)
			e.bounds[0] = w0
			for i := 1; i < opt.Parallelism; i++ {
				e.bounds[i] = bs.NewBoundWorker()
			}
			e.floorHeaps = make([][]float64, opt.Parallelism)
			heapBuf := make([]float64, opt.Parallelism*opt.SelectTop)
			for i := range e.floorHeaps {
				e.floorHeaps[i] = heapBuf[i*opt.SelectTop : i*opt.SelectTop : (i+1)*opt.SelectTop]
			}
		}
	}
	e.ctrs = make([]int64, 3*opt.Parallelism)
	return e
}

// buildDepthOne precomputes, for every condition, the per-group
// intersection counts of its extension under the scorer's labeling —
// one trailing-zeros pass per condition, backed by a single allocation.
// Together with the Language's cached per-condition target sums this is
// everything a StatScorerWorker needs, so scoring the whole first level
// touches no bitsets.
func buildDepthOne(lang *Language, gl GroupLabeler) *depthOneTable {
	labels := gl.Labels()
	ng := gl.NumGroups()
	if ng == 0 || len(labels) != lang.N {
		return nil
	}
	sums, sizes := lang.CondTargetStats()
	counts := make([][]int32, len(lang.Exts))
	buf := make([]int32, ng*len(lang.Exts))
	for ci, ext := range lang.Exts {
		c := buf[ci*ng : (ci+1)*ng : (ci+1)*ng]
		if ng == 1 {
			// Fresh model: the only group's count is the extension size.
			c[0] = int32(sizes[ci])
		} else {
			for wi, w := range ext.Words() {
				base := wi * 64
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					c[labels[base+b]]++
				}
			}
		}
		counts[ci] = c
	}
	return &depthOneTable{counts: counts, sums: sums, sizes: sizes}
}

// EvaluateBatch scores all candidates in parallel and returns the
// accepted ones sorted by the engine ordering (SI descending,
// deterministic regardless of scheduling). The results are
// unmaterialized (nil Ext and Mean — see Scored); with a WorkerScorer
// the entire batch costs no per-candidate allocations: level-1
// candidates (nil parent) are scored straight from the depth-1 table,
// deeper ones through one fused AndCountInto + worker-scratch scoring
// pass over the batch's columnar streams. The returned slice and the
// Scored.Ids in it are evaluator/batch-owned scratch, valid until the
// next EvaluateBatch/Reset — Materialize survivors before retaining.
//
// With bounds armed (BoundScorer + SelectTop, no DisableBounds), each
// worker keeps a running min-heap of its SelectTop best SIs and
// publishes the heap root to a shared atomic floor. Because a worker's
// SelectTop-th best over a SUBSET of the batch can only underestimate
// the batch-wide SelectTop-th best, the floor is always a valid lower
// bound on the final prefix-entry SI; a candidate whose inflated upper
// bound falls strictly below it can neither enter the SelectTop prefix
// nor outrank prefix entries in any downstream bounded log, so skipping
// its scoring pass leaves consumed results bit-identical at every
// parallelism level. Which candidates get skipped DOES vary with
// scheduling — only the Stats counters observe that.
//
// When the evaluator's Deadline expires mid-batch the whole batch is
// abandoned and timedOut is true with a nil result: a partial level is
// never returned, so completed results stay deterministic and a caller
// treats an expired batch exactly like a deadline seen before it.
func (e *Evaluator) EvaluateBatch(b *Batch) (kept []Scored, timedOut bool) {
	n := b.Len()
	if cap(e.out) < n {
		e.out = make([]Scored, n)
		e.valid = make([]bool, n)
	}
	out := e.out[:n]
	valid := e.valid[:n]
	for i := range valid {
		valid[i] = false
	}
	checkDeadline := !e.opt.Deadline.IsZero()
	var expired atomic.Bool

	// The batch floor starts at the armed seed (final-level log floor)
	// or -Inf; it only ever rises within the batch.
	seed := math.Inf(-1)
	if e.seedSet {
		seed = e.seedSI
		e.seedSet = false
	}
	e.floorKey.Store(orderKey(seed))
	pruning := e.bounds != nil
	if pruning {
		pruning = false
		for _, p := range b.parents {
			if p != nil {
				pruning = true
				break
			}
		}
	}

	nw := e.opt.Parallelism
	if len(e.ctrs) < 3*nw {
		e.ctrs = make([]int64, 3*nw)
	}
	ctrs := e.ctrs
	for i := range ctrs {
		ctrs[i] = 0
	}

	var wg sync.WaitGroup
	chunk := (n + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			depth := b.depth
			minSupport := e.opt.MinSupport
			selectTop := e.opt.SelectTop
			var bw BoundWorker
			var heap []float64
			if pruning {
				bw = e.bounds[w]
				heap = e.floorHeaps[w][:0]
			}
			curPar := int32(-1)
			boundReady := false
			var nScored, nBound, nPruned int64
			for i := lo; i < hi; i++ {
				if checkDeadline && (i-lo)&63 == 0 {
					if expired.Load() {
						return
					}
					if time.Now().After(e.opt.Deadline) {
						expired.Store(true)
						return
					}
				}
				pi := b.parentOf[i]
				parent := b.parents[pi]
				cond := b.conds[i]
				var si, ic float64
				var size int
				var ok bool
				if parent == nil && e.d1 != nil {
					size = e.d1.sizes[cond]
					if size < minSupport {
						continue
					}
					si, ic, _, ok = e.statWorkers[w].ScoreStats(
						e.d1.counts[cond], e.d1.sums[cond], size, depth)
				} else {
					pset := parent
					if pset == nil {
						pset = e.full
					}
					if bw != nil && pi != curPar {
						curPar = pi
						boundReady = false
						if parent != nil {
							// Prepare sorts the parent's residuals, so it only
							// pays when enough candidates of this parent land in
							// this worker's range to amortize the O(m log m):
							// short runs are cheaper to just score.
							runLen := 1
							for j := i + 1; j < hi && b.parentOf[j] == pi; j++ {
								runLen++
							}
							if runLen >= minBoundRun {
								boundReady = bw.Prepare(parent)
							}
						}
					}
					scratch := e.scratch[w]
					size = bitset.AndCountInto(scratch, pset, e.lang.Exts[cond])
					if size < minSupport {
						continue
					}
					if boundReady {
						nBound++
						ub := bw.BoundSI(size, depth)
						ub += boundSlack * (math.Abs(ub) + 1)
						if ub < keyFloat(e.floorKey.Load()) {
							nPruned++
							continue
						}
					}
					if e.workers != nil {
						si, ic, _, ok = e.workers[w].Score(scratch, depth)
					} else {
						si, ic, _, ok = e.sc.Score(scratch, depth)
					}
				}
				if !ok {
					continue
				}
				nScored++
				out[i] = Scored{
					Ids:  b.IDs(i),
					Cand: i,
					Size: size,
					SI:   si, IC: ic,
				}
				valid[i] = true
				if heap != nil {
					// Local top-SelectTop SI min-heap; once full, its root
					// is this worker's floor contribution.
					if len(heap) < selectTop {
						heap = append(heap, si)
						siftUpFloat(heap)
						if len(heap) == selectTop {
							e.raiseFloor(heap[0])
						}
					} else if si > heap[0] {
						heap[0] = si
						siftDownFloat(heap)
						e.raiseFloor(heap[0])
					}
				}
			}
			if pruning {
				e.floorHeaps[w] = heap[:0]
			}
			ctrs[3*w], ctrs[3*w+1], ctrs[3*w+2] = nScored, nBound, nPruned
		}(w, lo, hi)
	}
	wg.Wait()
	if expired.Load() {
		return nil, true
	}
	for w := 0; w < nw; w++ {
		e.stats.Scored += ctrs[3*w]
		e.stats.BoundEvals += ctrs[3*w+1]
		e.stats.Pruned += ctrs[3*w+2]
	}

	kept = out[:0] // filter in place; out's backing array is ours
	for i := range out {
		if valid[i] {
			kept = append(kept, out[i])
		}
	}
	if e.opt.SelectTop > 0 {
		SelectTopScored(kept, e.opt.SelectTop)
	} else {
		SortScored(kept)
	}
	return kept, false
}

// siftUpFloat restores the min-heap property after appending to h.
func siftUpFloat(h []float64) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDownFloat restores the min-heap property after replacing h[0].
func siftDownFloat(h []float64) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l] < h[min] {
			min = l
		}
		if r < len(h) && h[r] < h[min] {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Materialize fills Ext and Mean for a scored candidate the caller is
// about to retain (beam parent, top-k entry), and replaces the
// batch-arena Ids alias with an owned copy. The extension is recomputed
// with the same intersection kernel and the mean re-derived by the same
// scoring path, so materialized values are bit-identical to the ones
// EvaluateBatch ranked on; only the handful of survivors per level pay
// the clones. b must be the batch the Scored came from. No-op when
// already materialized.
func (e *Evaluator) Materialize(b *Batch, s *Scored) {
	if s.Ext != nil {
		return
	}
	s.Ids = append([]CondID(nil), s.Ids...)
	parent := b.parents[b.parentOf[s.Cand]]
	cond := b.conds[s.Cand]
	numConds := b.depth
	if parent == nil {
		s.Ext = e.lang.Exts[cond].Clone()
		if e.d1 != nil {
			_, _, mean, ok := e.statWorkers[0].ScoreStats(
				e.d1.counts[cond], e.d1.sums[cond], e.d1.sizes[cond], numConds)
			if ok {
				s.Mean = mean.Clone()
			}
			return
		}
	} else {
		ext := bitset.New(e.lang.N)
		bitset.AndCountInto(ext, parent, e.lang.Exts[cond])
		s.Ext = ext
	}
	// Score the just-built extension directly — same bits as the batch
	// pass, so the same floats come back.
	if e.workers != nil {
		if _, _, mean, ok := e.workers[0].Score(s.Ext, numConds); ok {
			s.Mean = mean.Clone()
		}
	} else if _, _, mean, ok := e.sc.Score(s.Ext, numConds); ok {
		s.Mean = mean
	}
}

// SortScored sorts by the engine ordering: SI descending, canonical
// intention ascending on ties.
func SortScored(s []Scored) {
	sort.Slice(s, func(i, j int) bool {
		return better(s[i].SI, s[i].Ids, s[j].SI, s[j].Ids)
	})
}

func scoredPrecedes(a, b *Scored) bool {
	return better(a.SI, a.Ids, b.SI, b.Ids)
}

// SelectTopScored partially orders s so that s[:k] holds the k best
// elements by the engine ordering, sorted, while s[k:] is left in
// unspecified order — equivalent to SortScored for every read of the
// first k entries, at O(n + k·log k) instead of O(n·log n). The engine
// ordering is strict and total (ties broken by canonical intention), so
// the selected prefix is the same set a full sort would produce.
func SelectTopScored(s []Scored, k int) {
	if k <= 0 {
		return
	}
	if k >= len(s) {
		SortScored(s)
		return
	}
	lo, hi := 0, len(s) // invariant: the k-boundary lies within s[lo:hi]
	for hi-lo > 12 {
		// Median-of-three pivot (by value copy; Hoare partition).
		mid := int(uint(lo+hi) >> 1)
		if scoredPrecedes(&s[mid], &s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if scoredPrecedes(&s[hi-1], &s[lo]) {
			s[hi-1], s[lo] = s[lo], s[hi-1]
		}
		if scoredPrecedes(&s[hi-1], &s[mid]) {
			s[hi-1], s[mid] = s[mid], s[hi-1]
		}
		p := s[mid]
		i, j := lo, hi-1
		for i <= j {
			for scoredPrecedes(&s[i], &p) {
				i++
			}
			for scoredPrecedes(&p, &s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			hi = lo // boundary settled between j and i
		}
	}
	// Small window: insertion sort settles every position in it.
	for i := lo + 1; i < hi; i++ {
		v := s[i]
		j := i
		for j > lo && scoredPrecedes(&v, &s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
	SortScored(s[:k])
}

// InsertSorted appends parent's ascending IDs with id spliced in at its
// sorted position to dst and returns the extended slice. parent must not
// already contain id.
func InsertSorted(dst, parent []CondID, id CondID) []CondID {
	i := 0
	for ; i < len(parent) && parent[i] < id; i++ {
		dst = append(dst, parent[i])
	}
	dst = append(dst, id)
	return append(dst, parent[i:]...)
}

// ContainsID reports whether the ascending ID slice contains id.
func ContainsID(ids []CondID, id CondID) bool {
	for _, have := range ids {
		if have == id {
			return true
		}
		if have > id {
			return false
		}
	}
	return false
}

// subsetOfPlus reports whether the ascending slice p is a subset of
// ids ∪ {c}.
func subsetOfPlus(p, ids []CondID, c CondID) bool {
	k := 0
	for _, id := range p {
		if id == c {
			continue
		}
		for k < len(ids) && ids[k] < id {
			k++
		}
		if k == len(ids) || ids[k] != id {
			return false
		}
	}
	return true
}

// TopK is a bounded result log: a min-heap on the engine ordering that
// keeps the best k scored candidates ever added. Replaces the former
// append-everything-then-sort-and-truncate merge, which re-sorted the
// full log every level.
type TopK struct {
	k int
	h []Scored // min-heap: h[0] is the worst retained item
}

// NewTopK returns an empty log bounded to k items (k ≤ 0 keeps
// everything unbounded — not used by the strategies, but safe).
func NewTopK(k int) *TopK {
	return &TopK{k: k}
}

// worse reports whether h[i] ranks below h[j] (min-heap order).
func (t *TopK) worse(i, j int) bool {
	return better(t.h[j].SI, t.h[j].Ids, t.h[i].SI, t.h[i].Ids)
}

// WouldAccept reports whether an item with this score and intention
// would enter the log. Callers use it to skip cloning extensions for
// candidates that cannot make the cut.
func (t *TopK) WouldAccept(si float64, ids []CondID) bool {
	if t.k <= 0 || len(t.h) < t.k {
		return true
	}
	return better(si, ids, t.h[0].SI, t.h[0].Ids)
}

// Add offers a scored candidate to the log.
func (t *TopK) Add(s Scored) {
	if t.k > 0 && len(t.h) == t.k {
		if !better(s.SI, s.Ids, t.h[0].SI, t.h[0].Ids) {
			return
		}
		t.h[0] = s
		t.siftDown(0)
		return
	}
	t.h = append(t.h, s)
	t.siftUp(len(t.h) - 1)
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			return
		}
		t.h[i], t.h[parent] = t.h[parent], t.h[i]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(t.h) && t.worse(l, min) {
			min = l
		}
		if r < len(t.h) && t.worse(r, min) {
			min = r
		}
		if min == i {
			return
		}
		t.h[i], t.h[min] = t.h[min], t.h[i]
		i = min
	}
}

// Len returns the number of retained items.
func (t *TopK) Len() int { return len(t.h) }

// Floor returns the SI of the worst retained item and whether the log
// is full. Only a full log's floor is a valid lower bound for pruning:
// any candidate scoring strictly below it can never be accepted (Add
// requires strictly better ordering to displace the root, so equal-SI
// candidates are also rejected once the log is full).
func (t *TopK) Floor() (si float64, full bool) {
	if t.k <= 0 || len(t.h) < t.k {
		return 0, false
	}
	return t.h[0].SI, true
}

// Sorted drains the log, best first. The TopK must not be used after.
func (t *TopK) Sorted() []Scored {
	out := t.h
	t.h = nil
	SortScored(out)
	return out
}
