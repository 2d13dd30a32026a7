package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
	"weak"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/mat"
)

// testDS builds a small dataset with one binary and one numeric
// descriptor and a single target.
func testDS(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	y := mat.NewDense(n, 1)
	flag := make([]float64, n)
	num := make([]float64, n)
	for i := 0; i < n; i++ {
		flag[i] = float64(rng.Intn(2))
		num[i] = rng.NormFloat64()
		y.Set(i, 0, num[i]+flag[i])
	}
	return &dataset.Dataset{
		Name: "engine-test",
		Descriptors: []dataset.Column{
			{Name: "flag", Kind: dataset.Binary, Values: flag, Levels: []string{"0", "1"}},
			{Name: "num", Kind: dataset.Numeric, Values: num},
		},
		TargetNames: []string{"t"},
		Y:           y,
	}
}

func TestLanguageForCaches(t *testing.T) {
	ds := testDS(50, 1)
	a := LanguageFor(ds, 4)
	b := LanguageFor(ds, 4)
	if a != b {
		t.Fatal("same dataset and splits must share one Language")
	}
	c := LanguageFor(ds, 2)
	if c == a {
		t.Fatal("different numSplits must not share a Language")
	}
	if len(c.Conds) >= len(a.Conds) {
		t.Fatalf("fewer splits should yield fewer conditions: %d vs %d",
			len(c.Conds), len(a.Conds))
	}
}

func TestLanguageExtensionsMatchConditions(t *testing.T) {
	ds := testDS(64, 2)
	lang := LanguageFor(ds, 4)
	for i, c := range lang.Conds {
		want := c.Extension(ds)
		if !lang.Exts[i].Equal(want) {
			t.Fatalf("cached extension %d differs from recomputed", i)
		}
	}
}

// sizeScorer scores a subgroup by its size. It is its own worker and
// offers no bound.
type sizeScorer struct{}

func (s sizeScorer) NewWorker() Worker         { return s }
func (sizeScorer) NewBoundWorker() BoundWorker { return nil }

func (sizeScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	s := float64(ext.Count())
	return s, s, nil, true
}

func (s sizeScorer) ScoreStats(ext *bitset.Set, _ mat.Vec, _, numConds int) (float64, float64, mat.Vec, bool) {
	return s.Score(ext, numConds)
}

func TestEvaluateBatchMatchesDirectScoring(t *testing.T) {
	ds := testDS(60, 3)
	lang := LanguageFor(ds, 4)
	full := bitset.Full(ds.N())
	batch := &Batch{}
	batch.Reset(1)
	batch.StartParent(full, nil)
	for i := range lang.Conds {
		batch.Add(CondID(i))
	}
	for _, par := range []int{1, 3, 8} {
		ev := NewEvaluator(lang, sizeScorer{}, Options{Parallelism: par, MinSupport: 2, SelectTop: batch.Len()})
		got, timedOut := ev.EvaluateBatch(batch)
		if timedOut {
			t.Fatal("no deadline was set")
		}
		var order hitHeap // cmp's intention scratch
		for k, h := range got {
			s := ev.Materialize(batch, h)
			if s.Ext.Count() != s.Size {
				t.Fatalf("par=%d: stored size %d != extension count %d", par, s.Size, s.Ext.Count())
			}
			if !s.Ext.Equal(lang.Exts[s.Ids[0]]) {
				t.Fatalf("par=%d: extension of %v differs from condition extension", par, s.Ids)
			}
			if k > 0 && order.cmp(batch, &h, &got[k-1]) < 0 {
				t.Fatalf("par=%d: output not sorted at %d", par, k)
			}
		}
		// Every sufficiently supported condition must appear.
		want := 0
		for _, e := range lang.Exts {
			if e.Count() >= 2 {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("par=%d: %d accepted, want %d", par, len(got), want)
		}
	}
}

func TestEvaluateBatchScratchIsolation(t *testing.T) {
	// Accepted extensions must be independent copies: mutating the
	// scratch (by evaluating another batch) must not corrupt them.
	ds := testDS(60, 4)
	lang := LanguageFor(ds, 4)
	full := bitset.Full(ds.N())
	batch := &Batch{}
	batch.Reset(1)
	batch.StartParent(full, nil)
	batch.Add(0)
	ev := NewEvaluator(lang, sizeScorer{}, Options{Parallelism: 1, SelectTop: 1})
	first, _ := ev.EvaluateBatch(batch)
	if len(first) != 1 {
		t.Fatal("candidate rejected")
	}
	kept := ev.Materialize(batch, first[0])
	ext, ids := kept.Ext, kept.Ids
	snapshot := ext.Clone()
	idsSnapshot := append([]CondID(nil), ids...)
	batch.Reset(1)
	batch.StartParent(full, nil)
	batch.Add(1)
	ev.EvaluateBatch(batch)
	if !ext.Equal(snapshot) {
		t.Fatal("earlier result mutated by later batch (scratch leaked)")
	}
	if !equalIDs(ids, idsSnapshot) {
		t.Fatal("materialized Ids mutated by later batch (arena aliased)")
	}
}

func TestEvaluateBatchExpiredDeadlineAbandonsBatch(t *testing.T) {
	ds := testDS(60, 10)
	lang := LanguageFor(ds, 4)
	full := bitset.Full(ds.N())
	batch := &Batch{}
	batch.Reset(1)
	batch.StartParent(full, nil)
	for i := range lang.Conds {
		batch.Add(CondID(i))
	}
	ev := NewEvaluator(lang, sizeScorer{}, Options{
		Parallelism: 2,
		SelectTop:   1,
		Deadline:    time.Now().Add(-time.Second),
	})
	got, timedOut := ev.EvaluateBatch(batch)
	if !timedOut {
		t.Fatal("expired deadline must mark the batch timed out")
	}
	if got != nil {
		t.Fatal("a timed-out batch must not return partial results")
	}
}

// sumScorer scores a subgroup by its target mean. Score sums the
// target rows of ext; ScoreStats reads none and takes the mean from the
// ysum and size it is passed, so a wrong cached sum or size shows.
type sumScorer struct{ y *mat.Dense }

func (s sumScorer) NewWorker() Worker         { return s }
func (sumScorer) NewBoundWorker() BoundWorker { return nil }

func (s sumScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	ysum := make(mat.Vec, s.y.C)
	ext.ForEach(func(i int) {
		for j, v := range s.y.Row(i) {
			ysum[j] += v
		}
	})
	return s.ScoreStats(nil, ysum, ext.Count(), numConds)
}

func (sumScorer) ScoreStats(_ *bitset.Set, ysum mat.Vec, size, _ int) (float64, float64, mat.Vec, bool) {
	if size == 0 {
		return 0, 0, nil, false
	}
	mean := ysum.Clone().Scale(1 / float64(size))
	return mean[0], float64(size), mean, true
}

// TestLevelOneScoresFromCachedStats: a level-1 candidate (nil parent)
// is scored from its condition's Language-cached target sum and size,
// and EvaluateBatch plus Materialize must give the SI and mean that
// scoring the condition's extension directly gives, at every
// parallelism.
func TestLevelOneScoresFromCachedStats(t *testing.T) {
	ds := testDS(90, 11)
	lang := LanguageFor(ds, 4)
	sc := sumScorer{ds.Y}
	batch := &Batch{}
	var root [1]Scored
	batch.Expand(1, root[:], len(lang.Conds))
	for _, par := range []int{1, 2, 3} {
		ev := NewEvaluator(lang, sc, Options{Parallelism: par, MinSupport: 1, SelectTop: batch.Len()})
		got, _ := ev.EvaluateBatch(batch)
		if len(got) != len(lang.Conds) {
			t.Fatalf("par=%d: %d hits, want one per condition (%d)", par, len(got), len(lang.Conds))
		}
		for _, h := range got {
			s := ev.Materialize(batch, h)
			wantSI, wantIC, wantMean, _ := sc.Score(lang.Exts[s.Ids[0]], 1)
			if h.SI != wantSI || h.IC != wantIC || s.SI != wantSI || !s.Ext.Equal(lang.Exts[s.Ids[0]]) {
				t.Fatalf("par=%d, cond %d: hit SI %v IC %v, materialized SI %v; direct SI %v IC %v",
					par, s.Ids[0], h.SI, h.IC, s.SI, wantSI, wantIC)
			}
			if len(s.Mean) != 1 || s.Mean[0] != wantMean[0] {
				t.Fatalf("par=%d, cond %d: materialized mean %v, direct %v", par, s.Ids[0], s.Mean, wantMean)
			}
		}
		ev.Release()
	}
}

func TestLanguageCacheDropsCollectedDataset(t *testing.T) {
	// A cached Language must not keep its dataset alive, and once the
	// dataset is collected its Languages must leave the cache.
	ds := testDS(20, 20)
	wp := weak.Make(ds)
	LanguageFor(ds, 4)
	LanguageFor(ds, 2)
	cached := func() int {
		langCache.Lock()
		defer langCache.Unlock()
		n := 0
		for k := range langCache.m {
			if k.ds == wp {
				n++
			}
		}
		return n
	}
	if got := cached(); got != 2 {
		t.Fatalf("%d cached languages for a live dataset, want 2", got)
	}
	ds = nil
	// Cleanups run on their own goroutine after the collection that
	// frees the dataset, so poll.
	for deadline := time.Now().Add(5 * time.Second); cached() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d languages still cached after the dataset was collected (collected: %v)",
				cached(), wp.Value() == nil)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

func TestEvictLanguage(t *testing.T) {
	ds := testDS(30, 11)
	a := LanguageFor(ds, 4)
	b := LanguageFor(ds, 2)
	EvictLanguage(ds)
	if LanguageFor(ds, 4) == a || LanguageFor(ds, 2) == b {
		t.Fatal("evicted languages must be rebuilt, not returned from cache")
	}
	// Unrelated datasets stay cached.
	other := testDS(30, 12)
	c := LanguageFor(other, 4)
	EvictLanguage(ds)
	if LanguageFor(other, 4) != c {
		t.Fatal("evicting one dataset must not drop another's language")
	}
}

func TestTopKMatchesSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		items := make([]Scored, n)
		for i := range items {
			// Coarse scores force plenty of ties to exercise the tiebreak.
			items[i] = Scored{
				SI:  float64(rng.Intn(5)),
				Ids: []CondID{CondID(rng.Intn(50)), CondID(50 + rng.Intn(50))},
			}
		}
		top := NewTopK(k)
		for _, it := range items {
			if top.WouldAccept(it.SI, it.Ids) != topkWouldChange(top, it) {
				t.Fatal("WouldAccept disagrees with Add behaviour")
			}
			top.Add(it)
		}
		got := top.Sorted()

		want := append([]Scored(nil), items...)
		SortScored(want)
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("kept %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].SI != want[i].SI || !equalIDs(got[i].Ids, want[i].Ids) {
				t.Fatalf("trial %d: rank %d differs: %v/%v vs %v/%v",
					trial, i, got[i].SI, got[i].Ids, want[i].SI, want[i].Ids)
			}
		}
	}
}

func TestNewTopKRejectsNonPositiveBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

// topkWouldChange predicts whether Add would retain the item, from the
// heap's public state.
func topkWouldChange(t *TopK, it Scored) bool {
	if len(t.h) < t.k {
		return true
	}
	return better(it.SI, it.Ids, t.h[0].SI, t.h[0].Ids)
}

func TestInsertSortedAndContains(t *testing.T) {
	parent := []CondID{2, 5, 9}
	var buf []CondID
	buf = InsertSorted(buf, parent, 7)
	want := []CondID{2, 5, 7, 9}
	if !equalIDs(buf, want) {
		t.Fatalf("got %v, want %v", buf, want)
	}
	buf = InsertSorted(buf[:0], parent, 1)
	if !equalIDs(buf, []CondID{1, 2, 5, 9}) {
		t.Fatalf("prepend failed: %v", buf)
	}
	buf = InsertSorted(buf[:0], parent, 11)
	if !equalIDs(buf, []CondID{2, 5, 9, 11}) {
		t.Fatalf("append failed: %v", buf)
	}
	for _, id := range parent {
		if !ContainsID(parent, id) {
			t.Fatalf("ContainsID missed %d", id)
		}
	}
	for _, id := range []CondID{0, 3, 10} {
		if ContainsID(parent, id) {
			t.Fatalf("ContainsID false positive for %d", id)
		}
	}
}

func TestEnumerateMatchesNaiveRecursion(t *testing.T) {
	ds := testDS(40, 6)
	lang := LanguageFor(ds, 2)
	const maxDepth, minSupport = 3, 2

	// Naive reference: allocating recursion over the same language.
	type node struct {
		ids  []CondID
		size int
	}
	var want []node
	var rec func(start int, ids []CondID, ext *bitset.Set)
	rec = func(start int, ids []CondID, ext *bitset.Set) {
		for i := start; i < len(lang.Conds); i++ {
			next := ext.And(lang.Exts[i])
			if next.Count() < minSupport {
				continue
			}
			cur := append(append([]CondID(nil), ids...), CondID(i))
			want = append(want, node{cur, next.Count()})
			if len(cur) < maxDepth {
				rec(i+1, cur, next)
			}
		}
	}
	rec(0, nil, bitset.Full(ds.N()))

	var got []node
	timedOut := lang.Enumerate(EnumOptions{MaxDepth: maxDepth, MinSupport: minSupport},
		func(ids []CondID, ext *bitset.Set, size int) bool {
			if ext.Count() != size {
				t.Fatalf("size %d != extension count %d", size, ext.Count())
			}
			got = append(got, node{append([]CondID(nil), ids...), size})
			return true
		})
	if timedOut {
		t.Fatal("no deadline was set")
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		if !equalIDs(got[i].ids, want[i].ids) || got[i].size != want[i].size {
			t.Fatalf("node %d: got %v/%d, want %v/%d",
				i, got[i].ids, got[i].size, want[i].ids, want[i].size)
		}
	}
}

func TestEnumeratePruneSkipsSubtree(t *testing.T) {
	ds := testDS(40, 7)
	lang := LanguageFor(ds, 2)
	depths := map[int]int{}
	lang.Enumerate(EnumOptions{MaxDepth: 3, MinSupport: 2},
		func(ids []CondID, ext *bitset.Set, size int) bool {
			depths[len(ids)]++
			return false // prune everything: only depth-1 nodes visited
		})
	if depths[2] != 0 || depths[3] != 0 {
		t.Fatalf("pruned subtrees were visited: %v", depths)
	}
	if depths[1] == 0 {
		t.Fatal("no root-level nodes visited")
	}
}

func TestSortScoredDeterministicOnTies(t *testing.T) {
	mk := func() []Scored {
		return []Scored{
			{SI: 1, Ids: []CondID{4}},
			{SI: 1, Ids: []CondID{2}},
			{SI: 2, Ids: []CondID{9}},
			{SI: 1, Ids: []CondID{2, 3}},
		}
	}
	a, b := mk(), mk()
	sort.Slice(b, func(i, j int) bool { return len(b[i].Ids) < len(b[j].Ids) }) // scramble
	SortScored(a)
	SortScored(b)
	for i := range a {
		if a[i].SI != b[i].SI || !equalIDs(a[i].Ids, b[i].Ids) {
			t.Fatalf("rank %d differs after different input orders", i)
		}
	}
	if a[0].SI != 2 || !equalIDs(a[1].Ids, []CondID{2}) {
		t.Fatalf("unexpected order: %v", a)
	}
}

// meanScorer scores a subgroup by its size and returns a fresh mean, so
// materialized results hold all three pointer fields.
type meanScorer struct{}

func (s meanScorer) NewWorker() Worker         { return s }
func (meanScorer) NewBoundWorker() BoundWorker { return nil }

func (meanScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	s := float64(ext.Count())
	return s, s, mat.Vec{s}, true
}

func (s meanScorer) ScoreStats(ext *bitset.Set, _ mat.Vec, _, numConds int) (float64, float64, mat.Vec, bool) {
	return s.Score(ext, numConds)
}

// TestReleaseClearsEveryWrittenSlot: Release clears every arena slot a
// search wrote that can hold a pointer. A search whose large level
// precedes a small one, and then a small search on the arena the large
// level grew, must each leave no Ids, Ext or Mean pointer in the parked
// parent buffer and no extension or intention in the batch's parent
// columns; the heaps and the merge buffer hold no pointer at all.
func TestReleaseClearsEveryWrittenSlot(t *testing.T) {
	arenas.Lock()
	arenas.free = nil // the next takeArena returns the set parked last
	arenas.Unlock()
	ds := testDS(120, 9)
	lang := LanguageFor(ds, 4)
	search := func(widths ...int) *arena {
		ev := NewEvaluator(lang, meanScorer{}, Options{Parallelism: 2, MinSupport: 1, SelectTop: len(lang.Conds)})
		b := ev.Batch()
		var root [1]Scored
		b.Expand(1, root[:], len(lang.Conds))
		for depth, width := range widths {
			got, _ := ev.EvaluateBatch(b)
			if len(got) < width {
				t.Fatalf("level %d kept %d candidates, want at least %d", depth+1, len(got), width)
			}
			parents := ev.Parents(width)
			for _, h := range got[:width] {
				parents = append(parents, ev.Materialize(b, h))
			}
			b.Expand(depth+2, parents, len(lang.Conds))
		}
		a := ev.arena
		ev.Release()
		return a
	}
	checkParked := func(a *arena) {
		t.Helper()
		if cap(a.parents) < len(lang.Conds) {
			t.Fatalf("parent buffer capacity %d: the large level did not grow it", cap(a.parents))
		}
		for i, s := range a.parents[:cap(a.parents)] {
			if s.Ids != nil || s.Ext != nil || s.Mean != nil {
				t.Fatalf("parked parent slot %d still holds a pointer: %+v", i, s)
			}
		}
		for i, p := range a.batch.parents[:cap(a.batch.parents)] {
			if p != nil {
				t.Fatalf("parked batch parent %d still holds an extension", i)
			}
		}
		for i, ids := range a.batch.parentIds[:cap(a.batch.parentIds)] {
			if ids != nil {
				t.Fatalf("parked batch parent %d still holds an intention", i)
			}
		}
	}
	large := search(len(lang.Conds), 1)
	checkParked(large)
	small := search(1)
	if small != large {
		t.Fatal("the small search did not reuse the large search's arena")
	}
	checkParked(small)
}

// boundedSizeScorer is sizeScorer with its exact, hence admissible,
// bound: any subgroup of size k scores k.
type boundedSizeScorer struct{ sizeScorer }

func (boundedSizeScorer) NewBoundWorker() BoundWorker { return sizeBound{} }

type sizeBound struct{}

func (sizeBound) Prepare(*bitset.Set, *[]float64) bool { return true }
func (sizeBound) BoundSI(size, _ int) float64          { return float64(size) }

// TestEvaluateBatchSelectTopMatchesFullSort: on a level of several
// parents whose candidates tie in SI by the dozen, EvaluateBatch
// returns exactly the first SelectTop hits of a reference that scores
// every candidate directly and sorts them all by the engine order, at
// every parallelism, with and without bound pruning.
func TestEvaluateBatchSelectTopMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, cols = 60, 12
	ds := &dataset.Dataset{Name: "wide", TargetNames: []string{"t"}, Y: mat.NewDense(n, 1)}
	for c := 0; c < cols; c++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		ds.Descriptors = append(ds.Descriptors, dataset.Column{Name: fmt.Sprint("x", c), Kind: dataset.Numeric, Values: v})
	}
	lang := LanguageFor(ds, 4)
	var beam []Scored
	for _, c := range []CondID{3, 0, 17, 40, 9} {
		beam = append(beam, Scored{Ids: []CondID{c}, Ext: lang.Exts[c]})
	}
	batch := &Batch{}
	batch.Expand(2, beam, len(lang.Conds))

	// The reference: every supported candidate, scored directly and
	// sorted by SI, then intention.
	const minSupport = 2
	var want []Hit
	for i := range batch.Len() {
		ext := batch.parents[batch.parentOf[i]].And(lang.Exts[batch.conds[i]])
		if size := ext.Count(); size >= minSupport {
			want = append(want, Hit{SI: float64(size), IC: float64(size), Cand: int32(i), Size: int32(size)})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		return better(want[i].SI, batch.AppendIDs(nil, int(want[i].Cand)),
			want[j].SI, batch.AppendIDs(nil, int(want[j].Cand)))
	})
	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].SI == want[i-1].SI {
			ties++
		}
	}
	t.Logf("%d candidates, %d hits, %d ties", batch.Len(), len(want), ties)
	if ties < len(want)/2 {
		t.Fatalf("only %d of %d hits tie with their predecessor; the tie-break goes untested", ties, len(want))
	}

	var pruned int64
	for _, sc := range []Scorer{sizeScorer{}, boundedSizeScorer{}} {
		for _, par := range []int{1, 2, 3, 7} {
			for _, k := range []int{1, 5, batch.Len()} {
				ev := NewEvaluator(lang, sc, Options{Parallelism: par, MinSupport: minSupport, SelectTop: k})
				got, _ := ev.EvaluateBatch(batch)
				pruned += ev.Stats().Pruned
				ev.Release()
				w := want[:min(k, len(want))]
				if len(got) != len(w) {
					t.Fatalf("%T, par=%d, k=%d: %d hits, want %d", sc, par, k, len(got), len(w))
				}
				for i := range w {
					if got[i] != w[i] {
						t.Fatalf("%T, par=%d, k=%d: hit %d is %+v, want %+v", sc, par, k, i, got[i], w[i])
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("the bounded scorer pruned nothing; the floor goes untested")
	}
}
