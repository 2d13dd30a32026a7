package engine_test

import (
	"reflect"
	"testing"

	"repro/internal/background"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/search"
	"repro/internal/si"
)

// TestParkedArenaFootprint pins what an evaluator arena costs while it
// waits on the free list between searches. After the paper's beam on
// the crime replica (width 40, depth 4, tens of thousands of candidates
// a level), only the batch's parent index and condition columns may grow
// with a level's candidate count: together at most 8 bytes per
// candidate of capacity, in records that hold no pointer, so the GC
// never scans them. Everything else in the set (the heaps and their
// merge buffer, the beam's parents, the bound scratch) grows with
// SelectTop, the beam width or the rows, and must stay under 64 KiB.
func TestParkedArenaFootprint(t *testing.T) {
	ds := gen.CrimeLike(gen.SeedCrime).DS
	m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	p := search.Params{BeamWidth: 40, MaxDepth: 4, Parallelism: 2}
	engine.DropParkedArenas() // no buffer grown by another test's search
	search.Beam(ds, sc, p)    // warm: the arena reaches its high-water mark
	res := search.Beam(ds, sc, p)

	cols := engine.ParkedColumns()
	candidates := 0
	for _, c := range cols {
		if c.Path == "arena.batch.conds" {
			candidates = c.Cap
		}
	}
	if want := res.Evaluated / res.Levels; candidates < want {
		t.Fatalf("parked batch holds %d candidates, fewer than the %d of an average level", candidates, want)
	}
	perCandidate, rest, nRest := 0, 0, 0
	for _, c := range cols {
		if c.Cap < candidates {
			rest += c.Bytes
			nRest++
			continue
		}
		perCandidate += c.Bytes
		t.Logf("%s: %d × %v, %d bytes", c.Path, c.Cap, c.Elem, c.Bytes)
		if !pointerFree(c.Elem) {
			t.Errorf("per-candidate column %s holds %v, a pointer the GC must scan", c.Path, c.Elem)
		}
	}
	t.Logf("%d candidates: per-candidate columns %.1f bytes each, the other %d columns %d bytes",
		candidates, float64(perCandidate)/float64(candidates), nRest, rest)
	if perCandidate > 8*candidates {
		t.Errorf("per-candidate columns cost %.1f bytes per candidate, want at most 8",
			float64(perCandidate)/float64(candidates))
	}
	if rest > 64<<10 {
		t.Errorf("the other columns cost %d bytes, want at most %d", rest, 64<<10)
	}
}

// pointerFree reports whether values of t contain no pointer the GC
// must trace.
func pointerFree(t reflect.Type) bool {
	switch k := t.Kind(); {
	case k == reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case k == reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	default:
		return k >= reflect.Bool && k <= reflect.Complex128
	}
}
