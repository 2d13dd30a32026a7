package background

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/mat"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := newModel(t, 60, 2)
	extA := bitset.FromIndices(60, seq(0, 25))
	if err := m.CommitLocation(extA, mat.Vec{2, -1}); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitSpread(extA, mat.Vec{1, 0}, mat.Vec{2, -1}, 0.4); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.SaveJSON(&buf); err != nil {
		t.Fatalf("SaveJSON: %v", err)
	}
	got, err := LoadJSONExact(&buf)
	if err != nil {
		t.Fatalf("LoadJSONExact: %v", err)
	}
	if got.N() != m.N() || got.D() != m.D() {
		t.Fatal("dimensions changed")
	}
	if got.NumGroups() != m.NumGroups() || got.NumConstraints() != m.NumConstraints() {
		t.Fatalf("structure changed: %d/%d groups, %d/%d constraints",
			got.NumGroups(), m.NumGroups(), got.NumConstraints(), m.NumConstraints())
	}
	// Marginals agree.
	muA, covA, _ := m.SubgroupMeanMarginal(extA)
	muB, covB, _ := got.SubgroupMeanMarginal(extA)
	if muA.Sub(muB).Norm() > 1e-9 {
		t.Fatalf("means differ: %v vs %v", muA, muB)
	}
	if covA.MaxAbsDiff(covB) > 1e-9 {
		t.Fatal("covariances differ")
	}
	// Constraints still hold on the restored model.
	es, _ := got.ExpectedSpread(extA, mat.Vec{1, 0}, mat.Vec{2, -1})
	if math.Abs(es-0.4) > 1e-6 {
		t.Fatalf("restored spread constraint = %v", es)
	}
	// And the restored model keeps evolving correctly.
	extB := bitset.FromIndices(60, seq(30, 50))
	if err := got.CommitLocation(extB, mat.Vec{-3, 3}); err != nil {
		t.Fatalf("commit on restored model: %v", err)
	}
	muN, _, _ := got.SubgroupMeanMarginal(extB)
	if muN.Sub(mat.Vec{-3, 3}).Norm() > 1e-6 {
		t.Fatal("restored model commit did not converge")
	}
}

// TestLoadJSONExactBitIdentical pins the property session persistence
// relies on: an exact load restores every group parameter to the same
// float64 bits the live model had, so a restored session reproduces
// byte-identical mine results.
func TestLoadJSONExactBitIdentical(t *testing.T) {
	m := newModel(t, 60, 2)
	extA := bitset.FromIndices(60, seq(0, 25))
	if err := m.CommitLocation(extA, mat.Vec{2, -1}); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitSpread(extA, mat.Vec{0, 1}, mat.Vec{2, -1}, 0.7); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSONExact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadJSONExact: %v", err)
	}
	if got.NumGroups() != m.NumGroups() || got.NumConstraints() != m.NumConstraints() {
		t.Fatal("structure changed")
	}
	for i, g := range m.Groups() {
		h := got.Groups()[i]
		for j := range g.Mu {
			if g.Mu[j] != h.Mu[j] { // exact, not within-epsilon
				t.Fatalf("group %d mu[%d]: %v != %v", i, j, g.Mu[j], h.Mu[j])
			}
		}
		if g.Sigma.MaxAbsDiff(h.Sigma) != 0 {
			t.Fatalf("group %d sigma not bit-identical", i)
		}
	}
	// The exact-loaded model still evolves: committing replays fine.
	extB := bitset.FromIndices(60, seq(30, 50))
	if err := got.CommitLocation(extB, mat.Vec{-1, 1}); err != nil {
		t.Fatalf("commit on exact-restored model: %v", err)
	}
	// Exact load still validates structure.
	if _, err := LoadJSONExact(strings.NewReader(
		`{"n":4,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],"constraints":[]}`)); err == nil {
		t.Fatal("exact load accepted groups that do not cover all points")
	}
}

// TestSnapshotRestoreCommitBitIdentical extends the exact-load property
// across a subsequent commit: a live model (with warm dependency-graph
// caches that let its refit skip clean constraints) and an
// exact-restored model (cold caches, first sweep applies everything)
// must produce bit-identical parameters when the same pattern is
// committed to both. This is the serialization leg of the tentpole's
// bit-identity argument: skipping a clean constraint and re-applying it
// on unchanged inputs are the same float trajectory.
func TestSnapshotRestoreCommitBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(40)
		d := 1 + rng.Intn(3)
		live, err := New(n, make(mat.Vec, d), mat.Eye(d))
		if err != nil {
			t.Fatal(err)
		}
		var lastExt *bitset.Set
		var lastY mat.Vec
		for step := 0; step < 4; step++ {
			ext := randomExt(rng, n, 4+rng.Intn(n/3))
			yhat := make(mat.Vec, d)
			for j := range yhat {
				yhat[j] = rng.NormFloat64()
			}
			if err := live.CommitLocation(ext, yhat); err != nil {
				continue
			}
			lastExt, lastY = ext, yhat
			if rng.Intn(3) == 0 {
				w := make(mat.Vec, d)
				for j := range w {
					w[j] = rng.NormFloat64()
				}
				w.Normalize()
				_ = live.CommitSpread(ext, w, yhat, 0.5+rng.Float64())
			}
		}
		if lastExt == nil {
			continue
		}
		var buf bytes.Buffer
		if err := live.SaveJSON(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := LoadJSONExact(&buf)
		if err != nil {
			t.Fatalf("seed %d: LoadJSONExact: %v", seed, err)
		}
		// Commit one more (overlapping) pattern to both.
		ext := randomExt(rng, n, 4+rng.Intn(n/3))
		bitset.OrCountInto(ext, ext, lastExt)
		yhat := lastY.Clone()
		yhat[0] += 0.5
		errA := live.CommitLocation(ext, yhat)
		errB := restored.CommitLocation(ext, yhat)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: commit divergence: %v vs %v", seed, errA, errB)
		}
		if errA != nil {
			continue
		}
		sameParams(t, "restore-commit", live, restored)
	}
}

func TestLoadJSONRejectsCorruptInput(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"n":0,"d":1,"groups":[],"constraints":[]}`,
		// Groups do not cover all points.
		`{"n":4,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],"constraints":[]}`,
		// Non-SPD covariance.
		`{"n":2,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[-1]}],"constraints":[]}`,
		// Bad constraint kind.
		`{"n":2,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],
		  "constraints":[{"kind":"wat","ext":[0]}]}`,
		// Location constraint with wrong target dim.
		`{"n":2,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],
		  "constraints":[{"kind":"location","ext":[0],"target":[1,2]}]}`,
		// Spread constraint with non-positive value.
		`{"n":2,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],
		  "constraints":[{"kind":"spread","ext":[0],"w":[1],"center":[0],"value":0}]}`,
		// Indices outside [0, n): a typed reject, not a bitset panic.
		`{"n":2,"d":1,"groups":[{"members":[0,5],"mu":[0],"sigma":[1]}],"constraints":[]}`,
		`{"n":2,"d":1,"groups":[{"members":[-1,1],"mu":[0],"sigma":[1]}],"constraints":[]}`,
		`{"n":2,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],
		  "constraints":[{"kind":"location","ext":[-1],"target":[0]}]}`,
		`{"n":2,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],
		  "constraints":[{"kind":"spread","ext":[2],"w":[1],"center":[0],"value":1}]}`,
		// An n the member lists do not account for: rejected before an
		// n-bit set is allocated.
		`{"n":1000000000000,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],"constraints":[]}`,
		// A point listed twice, in one group or in two, leaves another
		// uncovered.
		`{"n":2,"d":1,"groups":[{"members":[0,0],"mu":[0],"sigma":[1]}],"constraints":[]}`,
		`{"n":3,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]},
		  {"members":[1],"mu":[0],"sigma":[1]}],"constraints":[]}`,
	}
	for i, c := range cases {
		if _, err := LoadJSONExact(strings.NewReader(c)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestSaveLoadFreshModel(t *testing.T) {
	m := newModel(t, 10, 3)
	var buf bytes.Buffer
	if err := m.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSONExact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumGroups() != 1 || got.NumConstraints() != 0 {
		t.Fatalf("fresh model structure: %d groups, %d constraints",
			got.NumGroups(), got.NumConstraints())
	}
}

// TestEncodeModelRejectsNonFinite checks that a NaN or infinite value
// in any float field, or an unknown constraint type, fails SaveJSON
// with nothing written.
func TestEncodeModelRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 8; field++ {
			m, err := New(8, mat.Vec{0, 0}, mat.Eye(2))
			if err != nil {
				t.Fatal(err)
			}
			ext := bitset.FromIndices(8, []int{1, 2, 3})
			loc := &locationConstraint{ext: ext, target: mat.Vec{1, 2}}
			sp := &spreadConstraint{ext: ext, w: mat.Vec{1, 0}, center: mat.Vec{1, 2}, value: 0.5}
			m.cons = []constraint{loc, sp}
			g := m.groups[0]
			switch field {
			case 0:
				m.Tol = bad
			case 1:
				g.Mu = mat.Vec{0, bad}
			case 2:
				g.Sigma = &mat.Dense{R: 2, C: 2, Data: []float64{1, 0, 0, bad}}
			case 3:
				loc.target[1] = bad
			case 4:
				sp.w[0] = bad
			case 5:
				sp.center[1] = bad
			case 6:
				sp.value = bad
			case 7:
				m.cons = append(m.cons, struct{ constraint }{})
			}
			var w countingWriter
			if err := m.SaveJSON(&w); err == nil || w.writes != 0 {
				t.Fatalf("%v in field %d: SaveJSON err %v after %d writes", bad, field, err, w.writes)
			}
		}
	}
}

// countingWriter counts Write calls and keeps what they wrote.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// setHeavyPayload is a valid model of about 1 MB: one group over
// 100 000 points and 10 000 location constraints with empty
// extensions. Loaded, it would need an n-bit set for each, 125 MB.
func setHeavyPayload() []byte {
	const n, cons = 100_000, 10_000
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"n":%d,"d":1,"groups":[{"members":[`, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(i))
	}
	b.WriteString(`],"mu":[0],"sigma":[1]}],"constraints":[`)
	for i := 0; i < cons; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"kind":"location","ext":[],"target":[0]}`)
	}
	b.WriteString("]}\n")
	return b.Bytes()
}

// TestLoadJSONExactBoundsSetMemory checks that a payload whose groups
// and constraints would need more set memory than maxLoadSetWords is
// rejected before any set is allocated: decoding the JSON, about 13 MB
// here, is all it costs, less than the set memory the bound admits.
func TestLoadJSONExactBoundsSetMemory(t *testing.T) {
	payload := setHeavyPayload()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadJSONExact(bytes.NewReader(payload))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d-byte set-heavy payload: err = %v, want ErrCorrupt", len(payload), err)
	}
	const bound = maxLoadSetWords * 8
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("rejecting a %d-byte payload allocated %d bytes, want at most %d", len(payload), grew, bound)
	}
}
