package search

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/si"
)

// TestWarmBeamAllocatesOnlySurvivors pins the steady state of the
// paper's beam (width 40, depth 4, top-150) on the crime replica: once
// an earlier search has grown the arenas on the free list, a search
// allocates only its returned patterns and the clones of the candidates
// that survive into the beam or the top-k log. About 40 000 candidates
// a level are scored; none of them may cost an allocation.
func TestWarmBeamAllocatesOnlySurvivors(t *testing.T) {
	ds := gen.CrimeLike(gen.SeedCrime).DS
	sc := scorerFor(t, ds)
	p := Params{BeamWidth: 40, MaxDepth: 4, TopK: 150, Parallelism: 1}
	res := Beam(ds, sc, p) // warm: Language cache, arena high-water marks
	if res.Levels != p.MaxDepth {
		t.Fatalf("search stopped at level %d", res.Levels)
	}

	// A level materializes at most TopK log entries plus the beam;
	// each clone is the owned intention, the extension (header and
	// words) and the mean. A returned pattern adds its Intention.
	survivors := res.Levels*p.TopK + (res.Levels-1)*p.BeamWidth
	cloneBytes := 32 + 8*((ds.N()+63)/64) + 8*p.MaxDepth + 8*ds.Dy()
	patternBytes := 64 * p.MaxDepth
	// Per-search set-up that does not grow with the candidates: the
	// evaluator, scorer workers and the top-k heap.
	const setupAllocs, setupBytes = 64, 128 << 10
	maxAllocs := float64(4*survivors + len(res.Patterns) + setupAllocs)
	maxBytes := uint64(survivors*cloneBytes + len(res.Patterns)*patternBytes + setupBytes)

	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { Beam(ds, sc, p) })
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up call
	t.Logf("%.0f allocs (max %.0f), %d bytes (max %d) per search of %d candidates",
		allocs, maxAllocs, perRun, maxBytes, res.Evaluated)
	if allocs > maxAllocs {
		t.Errorf("warm Beam made %.0f allocations, want at most %.0f", allocs, maxAllocs)
	}
	if perRun > maxBytes {
		t.Errorf("warm Beam allocated %d bytes, want at most %d", perRun, maxBytes)
	}
}

// TestFreshScorerBeamAllocatesOnlySurvivors pins the server's mine
// shape. Every commit publishes a new background model, so each mine
// builds a new LocationScorer and a new evaluator, often on another
// session's replica. After one search on a first crime seed has grown
// the arenas, a search with a fresh scorer on a second seed may
// allocate only its survivors, its patterns, the scorer's one residual
// vector and fixed set-up. In particular no bound preparation may
// allocate: its scratch is the arena's.
func TestFreshScorerBeamAllocatesOnlySurvivors(t *testing.T) {
	warm := gen.CrimeLike(gen.SeedCrime + 1).DS
	p := Params{BeamWidth: 40, MaxDepth: 4, TopK: 150, Parallelism: 2}
	Beam(warm, scorerFor(t, warm), p)

	// The second seed's model and Language are built before measuring:
	// a server shares both across mines.
	ds := gen.CrimeLike(gen.SeedCrime).DS
	m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
	if err != nil {
		t.Fatal(err)
	}
	lang := engine.LanguageFor(ds, 4)
	lang.CondTargetStats()
	probe := &scratchProbe{}
	mine := func() *Results {
		sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
		if err != nil {
			t.Fatal(err)
		}
		probe.LocationScorer = sc
		return Beam(ds, probe, p)
	}

	const runs = 3
	var res *Results
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		res = mine()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(lang)
	if res.Levels != p.MaxDepth {
		t.Fatalf("search stopped at level %d", res.Levels)
	}
	if probe.prepares.Load() == 0 {
		t.Fatal("no parent was prepared for bounding")
	}
	if g := probe.regrown.Load(); g != 0 {
		t.Errorf("%d of %d Prepare calls regrew their bound scratch; want every one to reuse the arena's",
			g, probe.prepares.Load())
	}

	survivors := res.Levels*p.TopK + (res.Levels-1)*p.BeamWidth
	cloneBytes := 32 + 8*((ds.N()+63)/64) + 8*p.MaxDepth + 8*ds.Dy()
	patternBytes := 64 * p.MaxDepth
	residualBytes := 8 * ds.N()
	// Per-search set-up that does not grow with the candidates: the
	// scorer, the evaluator, scorer workers and the top-k heap.
	const setupAllocs, setupBytes = 64, 128 << 10
	maxAllocs := uint64(4*survivors + len(res.Patterns) + 1 + setupAllocs)
	maxBytes := uint64(survivors*cloneBytes + len(res.Patterns)*patternBytes + residualBytes + setupBytes)
	allocs := (after.Mallocs - before.Mallocs) / runs
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d allocs (max %d), %d bytes (max %d) per fresh-scorer search of %d candidates, %d prepares",
		allocs, maxAllocs, perRun, maxBytes, res.Evaluated, probe.prepares.Load()/runs)
	if allocs > maxAllocs {
		t.Errorf("fresh-scorer Beam made %d allocations, want at most %d", allocs, maxAllocs)
	}
	if perRun > maxBytes {
		t.Errorf("fresh-scorer Beam allocated %d bytes, want at most %d", perRun, maxBytes)
	}
}

// scratchProbe wraps a LocationScorer to watch its bound workers: it
// counts the Prepare calls and those that had to reallocate the
// caller's scratch.
type scratchProbe struct {
	*si.LocationScorer
	prepares, regrown atomic.Int64
}

func (p *scratchProbe) NewBoundWorker() engine.BoundWorker {
	bw := p.LocationScorer.NewBoundWorker()
	if bw == nil {
		return nil
	}
	return probedBound{bw, p}
}

type probedBound struct {
	engine.BoundWorker
	p *scratchProbe
}

func (b probedBound) Prepare(parent *bitset.Set, scratch *[]float64) bool {
	data, c := unsafe.SliceData(*scratch), cap(*scratch)
	ok := b.BoundWorker.Prepare(parent, scratch)
	b.p.prepares.Add(1)
	if unsafe.SliceData(*scratch) != data || cap(*scratch) != c {
		b.p.regrown.Add(1)
	}
	return ok
}

// TestConcurrentBeamsShareArenas runs several searches at once, of
// different shapes so that arenas change hands between them, and
// requires each to return exactly what it returns alone. Run under
// -race it checks that the free list hands every arena to one search
// at a time.
func TestConcurrentBeamsShareArenas(t *testing.T) {
	ds := gen.Synthetic620(gen.SeedSynthetic).DS
	sc := scorerFor(t, ds)
	params := []Params{
		{Parallelism: 1},
		{Parallelism: 2, BeamWidth: 10, MaxDepth: 3},
		{Parallelism: 1, BeamWidth: 25, TopK: 30},
		{Parallelism: 2, MaxDepth: 2},
	}
	want := make([][]byte, len(params))
	for i, p := range params {
		want[i] = dumpResults(Beam(ds, sc, p))
	}
	var wg sync.WaitGroup
	errs := make(chan int, 4*len(params))
	for g := 0; g < 4; g++ {
		for i, p := range params {
			wg.Add(1)
			go func(i int, p Params) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					if !bytes.Equal(dumpResults(Beam(ds, sc, p)), want[i]) {
						errs <- i
						return
					}
				}
			}(i, p)
		}
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Errorf("concurrent search with %+v differs from its serial run", params[i])
	}
}
