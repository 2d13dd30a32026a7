// Package engine owns the candidate-evaluation pipeline shared by
// every subgroup search strategy: the beam search and the exact search
// (the beam's oracle and the optimal-SI search) both score candidates
// through this package, with whatever Scorer they are given — the SI
// measure in production.
//
// The pipeline is built to keep the steady-state hot path free of
// allocations: condition extensions are precomputed per dataset and
// cached (Language), each evaluation worker intersects into a pooled
// scratch bitset (bitset.AndCountInto) and only materializes an
// extension for candidates that survive support and scoring,
// intentions are canonical ascending condition-ID slices (no string
// keys) that a batch builds on demand from the parent's, a scored
// candidate is a pointer-free Hit until a strategy keeps it, each
// worker keeps only a level's SelectTop best hits in a bounded heap
// while it scores, candidate batches and heaps are reused across
// searches, and result logs are bounded top-k heaps rather than
// sort-and-truncate over the whole level.
package engine

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// Scorer mints the per-goroutine contexts the engine scores and bounds
// candidates with. NewBoundWorker returns nil when no admissible bound
// is available for the current model/dataset shape: bounds are an
// optimization, never a requirement, and a nil bound worker means no
// pruning. Searches with bounds disabled never call it.
type Scorer interface {
	NewWorker() Worker
	NewBoundWorker() BoundWorker
}

// Worker is a single-goroutine scoring context. Score evaluates a
// candidate extension described by numConds conditions; ok=false
// rejects the candidate (too small, degenerate...). ScoreStats scores
// the same candidate given also the sum of target rows over ext and its
// size, so it reads no target row: the evaluator passes a condition's
// Language-cached sum and size for level-1 candidates. Both paths must
// give bit-identical results. ext and ysum are caller-owned and must not
// be modified or retained. The returned mean may be worker-owned
// scratch, valid only until the worker's next call — callers clone what
// they retain.
type Worker interface {
	Score(ext *bitset.Set, numConds int) (si, ic float64, mean mat.Vec, ok bool)
	ScoreStats(ext *bitset.Set, ysum mat.Vec, size, numConds int) (si, ic float64, mean mat.Vec, ok bool)
}

// BoundWorker is a single-goroutine bounding context. Prepare readies
// the worker for candidates refining one parent extension (amortized
// over the parent's whole run of candidates); BoundSI then returns, in
// O(1), an upper bound on the SI of ANY subset of the prepared parent
// with exactly the given size, described by numConds conditions. The
// bound must be admissible up to float rounding — the evaluator inflates
// it by a relative epsilon before comparing, and the search layer's
// property tests verify that no true SI ever exceeds the inflated bound.
//
// Exact search bounds a whole subtree from one node, so it relies on
// one more property: for c′ > c, BoundSI(size, c′) ≤ max(BoundSI(size,
// c), 0). An IC/DL bound has it whenever DL is positive and does not
// decrease as conditions are added (si.Params.Validate), since a larger
// DL only moves the ratio towards zero; a bound that ignores numConds
// has it trivially.
//
// Prepare keeps its per-parent tables in *scratch, growing it when it
// is too small, and BoundSI reads them from there: the caller owns the
// buffer and must not touch it between a Prepare and the BoundSI calls
// that follow. The evaluator passes each goroutine's bound scratch from
// its arena, so a warm search's Prepare allocates nothing.
type BoundWorker interface {
	Prepare(parent *bitset.Set, scratch *[]float64) bool
	BoundSI(size, numConds int) float64
}

// Options configure an Evaluator.
type Options struct {
	Parallelism int       // worker goroutines (default GOMAXPROCS)
	MinSupport  int       // minimum subgroup size (default 2)
	Deadline    time.Time // zero means no time budget
	// SelectTop, which must be positive, is how many of a batch's best
	// candidates EvaluateBatch returns, in engine order. Strategies that
	// consume a bounded prefix (beam width, top-k log) set it to that
	// prefix's length; a caller that reads every hit passes at least the
	// batch's length. Each evaluation goroutine keeps its SelectTop best
	// in a heap while it scores, so the rest of a level is never stored.
	//
	// SelectTop also arms bound pruning: with a bound worker, candidates
	// whose admissible SI upper bound falls strictly below the running
	// SelectTop-th best SI of the batch are dropped without scoring.
	// Such candidates can neither enter the returned prefix nor any
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
// intention slice header each), a level is a few flat streams — the
// distinct parents' extensions and intentions in first-use order, a
// per-candidate parent index and a per-candidate condition. A
// candidate's intention is its parent's plus its condition, built on
// demand (AppendIDs) by the few readers that need it. The evaluation
// loop sweeps the streams in order, and a caller reuses one Batch
// across levels (Reset keeps the backing arrays), so steady-state level
// construction allocates nothing.
//
// Candidates sharing a parent must be appended contiguously (StartParent
// once, then Add per refinement) — the evaluator amortizes per-parent
// bound preparation over exactly these runs.
type Batch struct {
	depth     int
	parents   []*bitset.Set // distinct parents; nil means the full dataset
	parentIds [][]CondID    // per distinct parent: its intention, caller-owned
	parentOf  []int32       // per candidate: index into parents
	conds     []CondID      // per candidate: the refining condition
	used      []bool        // Expand scratch: conditions of earlier parents
}

// Reset clears the batch for a new level whose candidates all have
// depth conditions, keeping the backing arrays.
func (b *Batch) Reset(depth int) {
	if depth <= 0 {
		panic("engine: Batch depth must be positive")
	}
	b.depth = depth
	b.parents = b.parents[:0]
	b.parentIds = b.parentIds[:0]
	b.parentOf = b.parentOf[:0]
	b.conds = b.conds[:0]
}

// StartParent begins a run of candidates refining the parent with
// extension ext and canonical intention ids (ascending, length = the
// Reset depth − 1). A nil ext means the full dataset — the level-1 form
// that lets the evaluator skip the intersection entirely (the extension
// IS the condition's) and score it through Worker.ScoreStats from the
// condition's cached target sum. The batch keeps ids, not a copy: the
// caller must leave it unchanged until the next Reset.
func (b *Batch) StartParent(ext *bitset.Set, ids []CondID) {
	if len(ids)+1 != b.depth {
		panic("engine: Batch.StartParent intention length != depth-1")
	}
	b.parents = append(b.parents, ext)
	b.parentIds = append(b.parentIds, ids)
}

// Add appends one candidate refining the current parent with cond,
// which the parent's intention must not contain.
func (b *Batch) Add(cond CondID) {
	if len(b.parents) == 0 {
		panic("engine: Batch.Add before StartParent")
	}
	b.parentOf = append(b.parentOf, int32(len(b.parents)-1))
	b.conds = append(b.conds, cond)
}

// Expand resets the batch to the level refining beam: each parent in
// beam order (its materialized Ext; nil means the full dataset), then
// every condition below numConds that the parent lacks, ascending. The
// beam's intentions must be distinct and hold depth−1 conditions; a
// single zero Scored expands to the depth-1 level of every condition.
// The batch aliases the beam's Ids until the next Reset.
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
		b.StartParent(p.Ext, p.Ids)
		for c := range used {
			id := CondID(c)
			if ContainsID(p.Ids, id) || used[c] && generatedBefore(beam[:i], p.Ids, id) {
				continue
			}
			b.Add(id)
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

// AppendIDs appends candidate i's canonical intention to dst and
// returns the extended slice.
func (b *Batch) AppendIDs(dst []CondID, i int) []CondID {
	return InsertSorted(dst, b.parentIds[b.parentOf[i]], b.conds[i])
}

// Hit is one accepted (supported, scoreable) candidate as EvaluateBatch
// returns it: its scores, its subgroup size and its index in the batch,
// which builds its intention (Batch.AppendIDs). A Hit holds no pointer,
// so candidates that never survive beam/log selection cost no
// allocations and the heaps that select them cost the GC no scan.
// Callers pass the survivors to Evaluator.Materialize.
type Hit struct {
	SI, IC     float64
	Cand, Size int32
}

// Scored is one kept candidate, owned by its holder: Ids, Ext and Mean
// alias no batch or evaluator scratch, so a Scored outlives the batch's
// next Reset and is safe to keep as a beam parent or log entry.
type Scored struct {
	Ids    []CondID
	Ext    *bitset.Set
	Size   int
	SI, IC float64
	Mean   mat.Vec
}

// better is the engine's total order on scored candidates: SI
// descending, canonical intention ascending (lexicographic) as the
// deterministic tiebreak. Every strategy ranks with this one ordering,
// so beam, exhaustive and heap-based logs agree on ties.
func better(aSI float64, aIds []CondID, bSI float64, bIds []CondID) bool {
	if aSI != bSI {
		return aSI > bSI
	}
	return slices.Compare(aIds, bIds) < 0
}

// Evaluator scores batches of candidates against one Language and
// Scorer, reusing per-goroutine scratch bitsets and scoring Workers
// across batches. An Evaluator is cheap to create per search; it must
// not be shared between concurrent searches.
// A search Releases its evaluator when done, which hands the batch and
// selection buffers on to the next search.
type Evaluator struct {
	*arena
	lang    *Language
	opt     Options
	scratch []*bitset.Set

	// workers[i] is goroutine i's scoring context. condSums and condSizes
	// are the Language's cached per-condition target sums and sizes,
	// which score level-1 candidates.
	workers   []Worker
	condSums  []mat.Vec
	condSizes []int

	// bounds[i] is goroutine i's bound worker when the scorer offers
	// bounds for this model; nil slice → no pruning.
	bounds []BoundWorker
	// floorKey is the shared SI floor for the current batch, encoded as
	// a monotone order key so a CAS-max works on the raw bits. Workers
	// publish the root SI of their full top-SelectTop heap here;
	// candidates whose inflated bound falls strictly below the floor are
	// pruned.
	floorKey atomic.Uint64
	// seedSI, when armed via SeedFloor, initializes the next batch's
	// floor instead of -Inf.
	seedSI  float64
	seedSet bool
	// ctrs is the reusable per-worker counter scratch (3 slots per
	// worker: scored, bound evals, pruned).
	ctrs []int64

	stats EvalStats
}

// arena is the buffer set that grows with a search's size: the columnar
// Batch, one top-SelectTop heap per evaluation goroutine and the buffer
// that merges them, the next level's parents and one bound scratch per
// evaluation goroutine, where BoundWorker.Prepare keeps a parent's
// sorted residual prefix sums. Sets circulate through a process-wide
// free list — NewEvaluator takes one, Release parks it — so a warm
// search, even one with a fresh scorer on another dataset, reuses the
// high-water buffers of earlier searches instead of regrowing its own.
// Every buffer grows by append and keeps its capacity. Only the batch's
// parentOf and conds columns grow with a level's candidate count; the
// rest grows with SelectTop, the beam or the rows.
type arena struct {
	batch        Batch
	heaps        []hitHeap
	merged       []Hit
	parents      []Scored
	boundScratch [][]float64
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
// its Batch and every slice EvaluateBatch or Parents returned are
// invalid after it. The batch's parent columns and the parent buffer are
// cleared first, so a parked set keeps no extension, mean or intention
// alive; the heaps, the merge buffer and the per-candidate columns hold
// no pointer and are left as they are.
func (e *Evaluator) Release() {
	a := e.arena
	if a == nil {
		return
	}
	e.arena = nil
	clear(a.batch.parents[:cap(a.batch.parents)])
	clear(a.batch.parentIds[:cap(a.batch.parentIds)])
	clear(a.parents[:cap(a.parents)])
	arenas.Lock()
	if len(arenas.free) < runtime.GOMAXPROCS(0) {
		arenas.free = append(arenas.free, a)
	}
	arenas.Unlock()
}

// Batch returns the evaluator's reusable candidate batch.
func (e *Evaluator) Batch() *Batch { return &e.batch }

// Parents returns the arena's buffer for a level's parents, empty, with
// room for n entries. A caller appends at most n materialized parents
// and passes them to Batch.Expand; Release clears them. Each call hands
// out the same buffer again.
func (e *Evaluator) Parents(n int) []Scored {
	e.parents = slices.Grow(e.parents[:0], n)
	return e.parents[:0]
}

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

// InflateBound applies the engine's bound slack to an SI upper bound.
// Every search that prunes on a BoundWorker compares the inflated value
// strictly against its floor, so beam and exact search share one
// rounding allowance.
func InflateBound(ub float64) float64 { return ub + boundSlack*(math.Abs(ub)+1) }

// minBoundRun is the smallest per-worker run of same-parent candidates
// for which preparing a bound (a sort of the parent's residuals) is
// worth the setup; below it the evaluator scores the run unbounded.
// Affects only speed, never results.
const minBoundRun = 64

// NewEvaluator builds an evaluator over the language. opt.SelectTop
// must be positive.
func NewEvaluator(lang *Language, sc Scorer, opt Options) *Evaluator {
	if opt.SelectTop <= 0 {
		panic("engine: Options.SelectTop must be positive")
	}
	opt = opt.withDefaults()
	e := &Evaluator{arena: takeArena(), lang: lang, opt: opt, ctrs: make([]int64, 3*opt.Parallelism)}
	e.scratch = make([]*bitset.Set, opt.Parallelism)
	e.workers = make([]Worker, opt.Parallelism)
	for i := range e.scratch {
		e.scratch[i] = bitset.New(lang.N)
		e.workers[i] = sc.NewWorker()
	}
	e.condSums, e.condSizes = lang.CondTargetStats()
	if k := opt.Parallelism - len(e.heaps); k > 0 {
		e.heaps = append(e.heaps, make([]hitHeap, k)...)
	}
	if opt.DisableBounds {
		return e
	}
	if w0 := sc.NewBoundWorker(); w0 != nil {
		if k := opt.Parallelism - len(e.boundScratch); k > 0 {
			e.boundScratch = append(e.boundScratch, make([][]float64, k)...)
		}
		e.bounds = make([]BoundWorker, opt.Parallelism)
		e.bounds[0] = w0
		for i := 1; i < opt.Parallelism; i++ {
			e.bounds[i] = sc.NewBoundWorker()
		}
	}
	return e
}

// EvaluateBatch scores all candidates in parallel and returns the best
// min(SelectTop, accepted) of them as Hits sorted by the engine ordering
// (SI descending, deterministic regardless of scheduling). The batch
// costs no per-candidate allocations: level-1 candidates (nil parent)
// are scored through Worker.ScoreStats from the condition's extension
// and cached target sum, deeper ones through one fused AndCountInto +
// Worker.Score pass over the batch's columnar streams. The returned
// slice is evaluator-owned scratch and a Hit's intention is built from
// the batch, both valid until the next EvaluateBatch/Reset —
// Materialize survivors before retaining.
//
// Each worker keeps its SelectTop best hits in a min-heap on the engine
// order while it scores, and EvaluateBatch sorts the union of the heaps
// and cuts it at SelectTop. Every member of the batch's top SelectTop is
// in its own worker's top SelectTop, so the cut is exactly the prefix a
// sort of the whole batch would give.
//
// With bounds armed (a bound worker, no DisableBounds), each worker also
// publishes the root SI of its full heap to a shared atomic floor.
// Because a worker's SelectTop-th best over a SUBSET of the batch can
// only underestimate the batch-wide SelectTop-th best, the floor is
// always a valid lower bound on the final prefix-entry SI; a candidate
// whose inflated upper bound falls strictly below it can neither enter
// the SelectTop prefix nor outrank prefix entries in any downstream
// bounded log, so skipping its scoring pass leaves results bit-identical
// at every parallelism level. Which candidates get skipped DOES vary
// with scheduling — only the Stats counters observe that.
//
// When the evaluator's Deadline expires mid-batch the whole batch is
// abandoned and timedOut is true with a nil result: a partial level is
// never returned, so completed results stay deterministic and a caller
// treats an expired batch exactly like a deadline seen before it.
func (e *Evaluator) EvaluateBatch(b *Batch) (kept []Hit, timedOut bool) {
	n := b.Len()
	if n > math.MaxInt32 {
		panic("engine: batch too large for Hit.Cand")
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
	ctrs := e.ctrs
	clear(ctrs)
	heaps := e.heaps[:nw]
	for w := range heaps {
		heaps[w].h = heaps[w].h[:0]
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
			heap := &heaps[w]
			worker := e.workers[w]
			var bw BoundWorker
			if pruning {
				bw = e.bounds[w]
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
				if parent == nil {
					size = e.condSizes[cond]
					if size < minSupport {
						continue
					}
					si, ic, _, ok = worker.ScoreStats(e.lang.Exts[cond], e.condSums[cond], size, depth)
				} else {
					if bw != nil && pi != curPar {
						// Prepare sorts the parent's residuals, so it only
						// pays when enough candidates of this parent land in
						// this worker's range to amortize the O(m log m):
						// short runs are cheaper to just score.
						curPar = pi
						runLen := 1
						for j := i + 1; j < hi && b.parentOf[j] == pi; j++ {
							runLen++
						}
						boundReady = runLen >= minBoundRun && bw.Prepare(parent, &e.boundScratch[w])
					}
					scratch := e.scratch[w]
					size = bitset.AndCountInto(scratch, parent, e.lang.Exts[cond])
					if size < minSupport {
						continue
					}
					if boundReady {
						nBound++
						if InflateBound(bw.BoundSI(size, depth)) < keyFloat(e.floorKey.Load()) {
							nPruned++
							continue
						}
					}
					si, ic, _, ok = worker.Score(scratch, depth)
				}
				if !ok {
					continue
				}
				nScored++
				hit := Hit{SI: si, IC: ic, Cand: int32(i), Size: int32(size)}
				if heap.push(b, selectTop, hit) && pruning {
					e.raiseFloor(heap.h[0].SI)
				}
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

	kept = e.merged[:0]
	for w := range heaps {
		kept = append(kept, heaps[w].h...)
	}
	e.merged = kept
	slices.SortFunc(kept, func(x, y Hit) int { return heaps[0].cmp(b, &x, &y) })
	return kept[:min(len(kept), e.opt.SelectTop)], false
}

// hitHeap is one evaluation goroutine's running best of a batch: a
// min-heap of at most SelectTop hits on the engine order, whose root is
// the worst hit it keeps. x and y are intention scratch for the SI ties
// that the order breaks by intention.
type hitHeap struct {
	h    []Hit
	x, y []CondID
}

// cmp is the engine order on two hits of b: negative when x ranks
// first. Only an SI tie builds the two intentions, into the scratch.
func (hh *hitHeap) cmp(b *Batch, x, y *Hit) int {
	if x.SI != y.SI {
		if x.SI > y.SI {
			return -1
		}
		return 1
	}
	hh.x = b.AppendIDs(hh.x[:0], int(x.Cand))
	hh.y = b.AppendIDs(hh.y[:0], int(y.Cand))
	return slices.Compare(hh.x, hh.y)
}

// push offers hit to the heap, which keeps the k best hits offered, and
// reports whether the heap is now full with a new root.
func (hh *hitHeap) push(b *Batch, k int, hit Hit) bool {
	h := hh.h
	if len(h) < k {
		h = append(h, hit)
		hh.h = h
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if hh.cmp(b, &h[i], &h[p]) < 0 {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		return len(h) == k
	}
	if hh.cmp(b, &hit, &h[0]) >= 0 {
		return false
	}
	h[0] = hit
	for i := 0; ; {
		worst := i
		if l := 2*i + 1; l < len(h) && hh.cmp(b, &h[l], &h[worst]) > 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && hh.cmp(b, &h[r], &h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return true
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Materialize builds the owned Scored for a hit the caller is about to
// retain (beam parent, top-k entry): its intention, its extension and
// its mean. The extension is recomputed with the same intersection
// kernel and the mean re-derived by the same scoring path, so
// materialized values are bit-identical to the ones EvaluateBatch ranked
// on; only the handful of survivors per level pay the clones. b must be
// the batch the hit came from.
func (e *Evaluator) Materialize(b *Batch, h Hit) Scored {
	s := Scored{
		Ids:  b.AppendIDs(make([]CondID, 0, b.depth), int(h.Cand)),
		Size: int(h.Size),
		SI:   h.SI, IC: h.IC,
	}
	parent := b.parents[b.parentOf[h.Cand]]
	cond := b.conds[h.Cand]
	w := e.workers[0]
	var mean mat.Vec
	var ok bool
	if parent == nil {
		// The path the batch took: the cached sum, no target row read.
		s.Ext = e.lang.Exts[cond].Clone()
		_, _, mean, ok = w.ScoreStats(s.Ext, e.condSums[cond], e.condSizes[cond], b.depth)
	} else {
		// Score the just-built extension directly — same bits as the
		// batch pass, so the same floats come back.
		s.Ext = bitset.New(e.lang.N)
		bitset.AndCountInto(s.Ext, parent, e.lang.Exts[cond])
		_, _, mean, ok = w.Score(s.Ext, b.depth)
	}
	if ok {
		s.Mean = mean.Clone()
	}
	return s
}

// SortScored sorts by the engine ordering: SI descending, canonical
// intention ascending on ties.
func SortScored(s []Scored) {
	sort.Slice(s, func(i, j int) bool {
		return better(s[i].SI, s[i].Ids, s[j].SI, s[j].Ids)
	})
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

// NewTopK returns an empty log bounded to k items. k must be positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("engine: TopK bound must be positive")
	}
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
	if len(t.h) < t.k {
		return true
	}
	return better(si, ids, t.h[0].SI, t.h[0].Ids)
}

// Add offers a scored candidate to the log.
func (t *TopK) Add(s Scored) {
	if len(t.h) == t.k {
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
	if len(t.h) < t.k {
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
