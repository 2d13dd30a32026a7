package engine

import (
	"math/bits"
	"runtime"
	"sync"
	"time"
	"weak"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/pattern"
)

// Language is the precomputed condition language of a dataset: the
// elementary conditions of §II-A together with their extensions, built
// once and shared by every search strategy, mining iteration and
// session that works on the same dataset. Conditions are identified by
// their ordinal index (a CondID), which is what the engine's dedup,
// ordering and intention representation operate on — no string keys
// anywhere on the hot path.
type Language struct {
	// N and Y are all a Language reads of its dataset after
	// construction; holding no *Dataset lets the cache key it weakly.
	N     int
	Y     *mat.Dense
	Conds []pattern.Condition
	Exts  []*bitset.Set

	// Depth-1 sufficient statistics, built lazily once per Language:
	// every condition's target-row sum and extension size depend only on
	// the (immutable) dataset, so they are shared by every search,
	// session and model state working on it.
	statsOnce sync.Once
	condSums  []mat.Vec
	condSizes []int
}

// CondID indexes a condition within its Language. Intentions are
// represented as ascending CondID slices, which is a canonical form:
// two intentions are equal iff their sorted ID slices are equal.
type CondID = int32

// NewLanguage enumerates the condition language of ds with numSplits
// percentile split points per numeric attribute and materializes every
// condition's extension.
func NewLanguage(ds *dataset.Dataset, numSplits int) *Language {
	conds := pattern.AllConditions(ds, numSplits)
	exts := make([]*bitset.Set, len(conds))
	for i, c := range conds {
		exts[i] = c.Extension(ds)
	}
	return &Language{N: ds.N(), Y: ds.Y, Conds: conds, Exts: exts}
}

// langCache memoizes NewLanguage per (dataset, numSplits). Iterative
// mining re-runs the search once per committed pattern and the server
// mines repeatedly within a session, so rebuilding the extensions each
// time is pure waste. Keys hold the dataset weakly, so an entry lives
// exactly as long as its dataset: a runtime cleanup drops it once the
// dataset is collected.
type langKey struct {
	ds        weak.Pointer[dataset.Dataset]
	numSplits int
}

var langCache = struct {
	sync.Mutex
	m map[langKey]*Language
}{m: map[langKey]*Language{}}

// LanguageFor returns the (cached) condition language for ds. The
// dataset must not be mutated after first use — the same assumption the
// rest of the system already makes.
func LanguageFor(ds *dataset.Dataset, numSplits int) *Language {
	key := langKey{weak.Make(ds), numSplits}
	langCache.Lock()
	l, ok := langCache.m[key]
	langCache.Unlock()
	if ok {
		return l
	}
	// Build outside the lock: extension materialization is O(n·|conds|)
	// and must not serialize unrelated sessions.
	l = NewLanguage(ds, numSplits)
	langCache.Lock()
	defer langCache.Unlock()
	if have, ok := langCache.m[key]; ok { // lost the race; reuse winner
		return have
	}
	langCache.m[key] = l
	runtime.AddCleanup(ds, dropLanguage, key)
	return l
}

// dropLanguage is a collected dataset's cleanup, one per cached entry.
// A key evicted and rebuilt gets a second one; deleting twice is harmless.
func dropLanguage(key langKey) {
	langCache.Lock()
	delete(langCache.m, key)
	langCache.Unlock()
}

// EvictLanguage drops every cached language built for ds, so the next
// LanguageFor rebuilds it (the cold path a benchmark times).
func EvictLanguage(ds *dataset.Dataset) {
	wp := weak.Make(ds)
	langCache.Lock()
	defer langCache.Unlock()
	for k := range langCache.m {
		if k.ds == wp {
			delete(langCache.m, k)
		}
	}
}

// CondTargetStats returns, for every condition, the sum of target rows
// over its extension (Σ_{i∈ext(c)} yᵢ) and the extension size. Both are
// model-independent, so they are computed once per Language and cached.
//
// The sums are built point-major: a CSR-style inverted index maps each
// point to the conditions containing it, and one pass over the data
// folds every row into all of its conditions' sums. The arithmetic is
// the same Σ|ext(c)| row additions a per-condition walk performs, but
// the target matrix is streamed exactly once instead of once per
// condition — on wide-target datasets (mammals: 134 conditions × 124
// targets) the per-condition walk re-reads the 2 MB matrix ~70 times
// and is purely memory-bound. Each condition's sum still accumulates
// in increasing point order — the same order as the fused scoring
// kernels and the former per-condition walk — so stat-scored and
// extension-scored candidates produce bit-identical floats.
//
// Binary targets (every yᵢⱼ ∈ {0,1}, e.g. species presence/absence)
// take a separate kernel: a sum of k ones is exactly float64(k)
// whatever order the additions happen in (k ≪ 2⁵³, and adding 0.0 to a
// non-negative partial sum is an exact no-op), so Σ_{i∈ext(c)} y_ij
// degenerates to the integer |ext(c) ∩ ones(j)|. Each target column
// becomes a bitset once, and every sum entry is one AND-popcount sweep
// — word-batched work instead of |ext|·d float adds, with bit-identical
// results by exactness rather than by order preservation.
func (l *Language) CondTargetStats() (sums []mat.Vec, sizes []int) {
	l.statsOnce.Do(func() {
		y := l.Y
		d := y.C
		n := l.N
		nc := len(l.Exts)
		l.condSums = make([]mat.Vec, nc)
		l.condSizes = make([]int, nc)
		buf := make(mat.Vec, d*nc)
		if binaryTargets(y) {
			cols := make([]*bitset.Set, d)
			for j := range cols {
				cols[j] = bitset.New(n)
			}
			for i := 0; i < n; i++ {
				row := y.Data[i*d : (i+1)*d]
				for j, v := range row {
					if v == 1 {
						cols[j].Add(i)
					}
				}
			}
			for ci, ext := range l.Exts {
				sum := buf[ci*d : (ci+1)*d : (ci+1)*d]
				for j, col := range cols {
					sum[j] = float64(ext.IntersectCount(col))
				}
				l.condSums[ci] = sum
				l.condSizes[ci] = ext.Count()
			}
			return
		}
		if d < 8 {
			// Narrow targets: each membership contributes only a few
			// adds, so the inverted index costs more than the re-reads
			// it eliminates. Walk per condition (same float order).
			for ci, ext := range l.Exts {
				sum := buf[ci*d : (ci+1)*d : (ci+1)*d]
				cnt := 0
				for wi, w := range ext.Words() {
					base := wi * 64
					for w != 0 {
						b := bits.TrailingZeros64(w)
						w &= w - 1
						row := y.Data[(base+b)*d : (base+b)*d+d]
						for j, v := range row {
							sum[j] += v
						}
						cnt++
					}
				}
				l.condSums[ci] = sum
				l.condSizes[ci] = cnt
			}
			return
		}
		total := 0
		for ci, ext := range l.Exts {
			l.condSums[ci] = buf[ci*d : (ci+1)*d : (ci+1)*d]
			sz := ext.Count()
			l.condSizes[ci] = sz
			total += sz
		}
		// CSR inverted index: memb[start[i]:start[i+1]] lists the
		// conditions containing point i, in ascending condition order
		// (filled condition-major below, which yields exactly that).
		start := make([]int32, n+1)
		for _, ext := range l.Exts {
			for wi, w := range ext.Words() {
				base := wi * 64
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					start[base+b+1]++
				}
			}
		}
		for i := 0; i < n; i++ {
			start[i+1] += start[i]
		}
		memb := make([]int32, total)
		fill := make([]int32, n)
		for ci, ext := range l.Exts {
			for wi, w := range ext.Words() {
				base := wi * 64
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					i := base + b
					memb[start[i]+fill[i]] = int32(ci)
					fill[i]++
				}
			}
		}
		// Fold every row into its conditions' sums. Each sum[j] is an
		// independent accumulator, so the four-wide unroll only
		// interleaves distinct target coordinates — every individual
		// accumulator still sees its additions in increasing point
		// order, keeping the sums bit-identical to the rolled loop.
		// The explicit reslice to len(row) lets the compiler drop the
		// per-element bounds checks that otherwise dominate the fold.
		for i := 0; i < n; i++ {
			row := y.Data[i*d : (i+1)*d]
			for _, ci := range memb[start[i]:start[i+1]] {
				sum := buf[int(ci)*d:]
				sum = sum[:len(row)]
				j := 0
				for ; j+4 <= len(row); j += 4 {
					sum[j] += row[j]
					sum[j+1] += row[j+1]
					sum[j+2] += row[j+2]
					sum[j+3] += row[j+3]
				}
				for ; j < len(row); j++ {
					sum[j] += row[j]
				}
			}
		}
	})
	return l.condSums, l.condSizes
}

// binaryTargets reports whether every target value is exactly 0 or 1,
// the precondition of the popcount sufficient-statistics kernel.
func binaryTargets(y *mat.Dense) bool {
	for _, v := range y.Data {
		if v != 0 && v != 1 {
			return false
		}
	}
	return true
}

// Intention materializes the pattern.Intention for a canonical ID
// slice. Called only when a subgroup is actually reported, never per
// candidate.
func (l *Language) Intention(ids []CondID) pattern.Intention {
	out := make(pattern.Intention, len(ids))
	for i, id := range ids {
		out[i] = l.Conds[id]
	}
	return out
}

// EnumOptions configure a depth-first enumeration of the language.
type EnumOptions struct {
	MaxDepth   int       // maximum conditions per conjunction (default 4)
	MinSupport int       // minimum subgroup size (default 2)
	Deadline   time.Time // zero means no time budget
}

func (o EnumOptions) withDefaults() EnumOptions {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 2
	}
	return o
}

// Enumerate walks every conjunction of up to MaxDepth distinct
// conditions (each used at most once, order-free) in canonical
// ascending-ID order, skipping nodes below MinSupport. It is the shared
// chassis of the exact strategies: Exhaustive, the optimal-SI branch
// and bound, and the baseline impact searches all differ only in their
// visit callback.
//
// visit receives the node's canonical IDs, its extension and its size,
// and returns whether to descend into the node's refinements (returning
// false is how branch-and-bound prunes a subtree). Both ids and ext are
// scratch storage owned by the enumeration — valid only during the
// call; callers must copy (ext.Clone()) what they keep. The entire walk
// performs no per-node allocations.
//
// Enumerate returns true if the deadline cut the walk short.
func (l *Language) Enumerate(o EnumOptions, visit func(ids []CondID, ext *bitset.Set, size int) bool) (timedOut bool) {
	o = o.withDefaults()
	if o.MaxDepth > len(l.Conds) {
		// Each condition is used at most once, so depth beyond the
		// language size is unreachable — no point allocating scratch for it.
		o.MaxDepth = len(l.Conds)
	}
	n := l.N
	// One scratch extension per depth: the node at depth d writes
	// scratch[d] and passes it down as the parent of depth d+1.
	scratch := make([]*bitset.Set, o.MaxDepth)
	for i := range scratch {
		scratch[i] = bitset.New(n)
	}
	ids := make([]CondID, 0, o.MaxDepth)
	checkDeadline := !o.Deadline.IsZero()
	nodes := 0

	var rec func(start int, parent *bitset.Set) bool
	rec = func(start int, parent *bitset.Set) bool {
		depth := len(ids)
		for i := start; i < len(l.Conds); i++ {
			if checkDeadline {
				nodes++
				if nodes&1023 == 0 && time.Now().After(o.Deadline) {
					timedOut = true
					return false
				}
			}
			ext := scratch[depth]
			size := bitset.AndCountInto(ext, parent, l.Exts[i])
			if size < o.MinSupport {
				continue
			}
			ids = append(ids, CondID(i))
			descend := visit(ids, ext, size)
			if descend && len(ids) < o.MaxDepth {
				if !rec(i+1, ext) {
					ids = ids[:len(ids)-1]
					return false
				}
			}
			ids = ids[:len(ids)-1]
		}
		return true
	}
	rec(0, bitset.Full(n))
	return timedOut
}
