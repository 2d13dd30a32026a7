package search

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
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
	// evaluator, scorer workers, the depth-1 table and the top-k heap.
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
