package engine

import (
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

// sizeScorer scores a subgroup by its size.
type sizeScorer struct{}

func (sizeScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	s := float64(ext.Count())
	return s, s, nil, true
}

func TestEvaluateBatchMatchesDirectScoring(t *testing.T) {
	ds := testDS(60, 3)
	lang := LanguageFor(ds, 4)
	full := bitset.Full(ds.N())
	batch := &Batch{}
	batch.Reset(1)
	batch.StartParent(full)
	for i := range lang.Conds {
		batch.Add(CondID(i), nil)
	}
	for _, par := range []int{1, 3, 8} {
		ev := NewEvaluator(lang, sizeScorer{}, Options{Parallelism: par, MinSupport: 2})
		got, timedOut := ev.EvaluateBatch(batch)
		if timedOut {
			t.Fatal("no deadline was set")
		}
		for k := range got {
			s := &got[k]
			if s.Ext != nil {
				t.Fatalf("par=%d: batch results must be unmaterialized", par)
			}
			ev.Materialize(batch, s)
			if s.Ext.Count() != s.Size {
				t.Fatalf("par=%d: stored size %d != extension count %d", par, s.Size, s.Ext.Count())
			}
			if !s.Ext.Equal(lang.Exts[s.Ids[0]]) {
				t.Fatalf("par=%d: extension of %v differs from condition extension", par, s.Ids)
			}
			if k > 0 && better(s.SI, s.Ids, got[k-1].SI, got[k-1].Ids) {
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
	batch.StartParent(full)
	batch.Add(0, nil)
	ev := NewEvaluator(lang, sizeScorer{}, Options{Parallelism: 1})
	first, _ := ev.EvaluateBatch(batch)
	if len(first) != 1 {
		t.Fatal("candidate rejected")
	}
	ev.Materialize(batch, &first[0])
	ext, ids := first[0].Ext, first[0].Ids
	snapshot := ext.Clone()
	idsSnapshot := append([]CondID(nil), ids...)
	batch.Reset(1)
	batch.StartParent(full)
	batch.Add(1, nil)
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
	batch.StartParent(full)
	for i := range lang.Conds {
		batch.Add(CondID(i), nil)
	}
	ev := NewEvaluator(lang, sizeScorer{}, Options{
		Parallelism: 2,
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

// topkWouldChange predicts whether Add would retain the item, from the
// heap's public state.
func topkWouldChange(t *TopK, it Scored) bool {
	if t.k <= 0 || len(t.h) < t.k {
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
