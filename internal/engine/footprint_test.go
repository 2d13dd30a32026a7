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

// TestResultSlotFootprint pins the cost of the evaluator arena's result
// buffer, which stays parked on the free list between searches. Its
// record holds no pointer, so the GC never scans it, and after the
// paper's beam on the crime replica (width 40, depth 4, tens of
// thousands of candidates a level) it costs at most 24 bytes per slot
// of capacity.
func TestResultSlotFootprint(t *testing.T) {
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
	search.Beam(ds, sc, p) // warm: the arena reaches its high-water mark
	res := search.Beam(ds, sc, p)

	rec, slots, perSlot := engine.ParkedResultFootprint()
	if rec == nil {
		t.Fatal("no arena was parked after the search")
	}
	if !pointerFree(rec) {
		t.Errorf("result record %v holds a pointer; the GC scans the parked buffer", rec)
	}
	if rec.Size() > 24 {
		t.Errorf("result record %v is %d bytes, want at most 24", rec, rec.Size())
	}
	if want := res.Evaluated / res.Levels; slots < want {
		t.Fatalf("result buffer has %d slots, fewer than the %d candidates of an average level", slots, want)
	}
	t.Logf("%v: %d slots, %.1f bytes per slot", rec, slots, perSlot)
	if perSlot > 24 {
		t.Errorf("parked result buffer costs %.1f bytes per slot, want at most 24", perSlot)
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
