package search

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/si"
)

// dumpResults serializes a Results to a canonical byte form: every
// float is written bit-exact, every extension as its index list, so two
// dumps are equal iff the results are byte-identical.
func dumpResults(res *Results) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "evaluated=%d levels=%d timedout=%v\n",
		res.Evaluated, res.Levels, res.TimedOut)
	for _, f := range res.Patterns {
		fmt.Fprintf(&buf, "%s size=%d si=%016x ic=%016x ext=%v mean=[",
			f.Intention.Key(), f.Size,
			math.Float64bits(f.SI), math.Float64bits(f.IC),
			f.Extension.Indices())
		for _, v := range f.Mean {
			_ = binary.Write(&buf, binary.LittleEndian, v)
		}
		buf.WriteString("]\n")
	}
	return buf.Bytes()
}

// TestBeamParallelismByteIdentical asserts that the engine's parallel
// candidate evaluation is fully deterministic: the beam search on the
// paper's synthetic dataset must return byte-identical Results whether
// it runs on 1, 2 or 8 workers.
func TestBeamParallelismByteIdentical(t *testing.T) {
	ds := gen.Synthetic620(gen.SeedSynthetic).DS
	sc := scorerFor(t, ds)
	var want []byte
	for _, par := range []int{1, 2, 8} {
		res := Beam(ds, sc, Params{Parallelism: par})
		got := dumpResults(res)
		if want == nil {
			want = got
			if res.Top() == nil {
				t.Fatal("no patterns found")
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Parallelism=%d results differ from Parallelism=1", par)
		}
	}
}

// TestBeamManyGroupsParallelismByteIdentical repeats the byte-identity
// guarantee on a model that many commits have fragmented into many
// parameter groups — the regime the fused sufficient-statistics kernel
// (group-label pass + cached per-condition target sums) is built for.
// The search must return the same bytes at every parallelism and
// regardless of whether candidates were scored from a cached target sum
// or the fused extension pass.
func TestBeamManyGroupsParallelismByteIdentical(t *testing.T) {
	ds := gen.Synthetic620(gen.SeedSynthetic).DS
	m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
	if err != nil {
		t.Fatal(err)
	}
	// Commit a spread of overlapping location patterns to split the
	// model into many groups.
	target := make(mat.Vec, ds.Dy())
	for c := 0; c < 12; c++ {
		ext := bitset.New(ds.N())
		lo := (c * 41) % (ds.N() - 80)
		for i := lo; i < lo+80; i++ {
			ext.Add(i)
		}
		target[0] = 0.05 * float64(c%3)
		if err := m.CommitLocation(ext, target); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumGroups() < 12 {
		t.Fatalf("model has only %d groups; the many-groups regime was not reached", m.NumGroups())
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, par := range []int{1, 2, 8} {
		res := Beam(ds, sc, Params{Parallelism: par})
		got := dumpResults(res)
		if want == nil {
			want = got
			if res.Top() == nil {
				t.Fatal("no patterns found")
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Parallelism=%d results differ on the many-groups model", par)
		}
	}
}

// TestExhaustiveLevelsReportsReachedDepth guards the fix for Levels
// being reported as maxDepth even when the recursion never scored a
// candidate that deep.
func TestExhaustiveLevelsReportsReachedDepth(t *testing.T) {
	ds := plantedDS(40, 11)
	sc := scorerFor(t, ds)

	// Generous depth limit, normal support: the planted dataset has few
	// conditions, so depth is bounded by the number of distinct
	// conditions that still meet MinSupport, not by maxDepth.
	res := Exhaustive(ds, sc, Params{MaxDepth: 50, NumSplits: 4, MinSupport: 2, TopK: 10, NoPrune: true})
	if res.Levels >= 50 {
		t.Fatalf("Levels = %d parrots maxDepth instead of the reached depth", res.Levels)
	}
	if res.Levels <= 0 {
		t.Fatalf("Levels = %d, want the deepest evaluated depth", res.Levels)
	}
	deepest := 0
	for _, f := range res.Patterns {
		if len(f.Intention) > deepest {
			deepest = len(f.Intention)
		}
	}
	if res.Levels < deepest {
		t.Fatalf("Levels = %d but a depth-%d pattern was scored", res.Levels, deepest)
	}

	// A support threshold above the largest condition extension blocks
	// every candidate: nothing is scored, so no level completes.
	blocked := Exhaustive(ds, sc, Params{MaxDepth: 3, NumSplits: 4, MinSupport: ds.N() + 1, TopK: 10, NoPrune: true})
	if blocked.Levels != 0 {
		t.Fatalf("Levels = %d with nothing evaluated, want 0", blocked.Levels)
	}
	if blocked.Evaluated != 0 || len(blocked.Patterns) != 0 {
		t.Fatalf("expected empty results, got %d evaluated, %d patterns",
			blocked.Evaluated, len(blocked.Patterns))
	}
}
