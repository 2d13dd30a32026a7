package background

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// This file keeps the reflection encoder that SaveJSON used before the
// hand-written encodeModel, as the reference the hand encoder is tested
// against: for every model both must produce the same bytes.

// refSaveJSON serializes a model through encoding/json: an []int per
// group and per constraint, then one reflective Encode of modelJSON.
func refSaveJSON(w io.Writer, version uint64, n, d int, tol float64, maxSweeps int, groups []*Group, cons []constraint) error {
	out := modelJSON{
		Format: modelFormat,
		N:      n, D: d, Tol: tol, MaxSweeps: maxSweeps, ModelVersion: version,
	}
	for _, g := range groups {
		out.Groups = append(out.Groups, groupJSON{
			Members: g.Members.Indices(),
			Mu:      g.Mu,
			Sigma:   g.Sigma.Data,
		})
	}
	for _, c := range cons {
		switch c := c.(type) {
		case *locationConstraint:
			out.Constraints = append(out.Constraints, constraintJSON{
				Kind: "location", Ext: c.ext.Indices(), Target: c.target,
			})
		case *spreadConstraint:
			out.Constraints = append(out.Constraints, constraintJSON{
				Kind: "spread", Ext: c.ext.Indices(),
				W: c.w, Center: c.center, Value: c.value,
			})
		default:
			return fmt.Errorf("background: unknown constraint type %T", c)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// refModelJSON is refSaveJSON of the live model m.
func refModelJSON(m *Model) ([]byte, error) {
	var buf bytes.Buffer
	err := refSaveJSON(&buf, m.version, m.n, m.d, m.Tol, m.MaxSweeps, m.groups, m.cons)
	return buf.Bytes(), err
}

// sameAsReference fails unless the hand encoder and the reference
// produce identical bytes for the given model fields, or both fail.
func sameAsReference(t *testing.T, tag string, version uint64, n, d int, tol float64, maxSweeps int, groups []*Group, cons []constraint) {
	t.Helper()
	var want bytes.Buffer
	refErr := refSaveJSON(&want, version, n, d, tol, maxSweeps, groups, cons)
	got, err := encodeModel(version, n, d, tol, maxSweeps, groups, cons)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", tag, err, refErr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("%s: failed encode returned %d bytes", tag, len(got))
		}
		return
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: encodings differ: %s", tag, firstDiff(got, want.Bytes()))
	}
	if len(got) != cap(got) {
		t.Fatalf("%s: buffer cap %d for %d bytes", tag, cap(got), len(got))
	}
}

// specialFloats are values at the edges of encoding/json's float
// format: signed zeros, the smallest subnormal, both sides of the 1e-6
// and 1e21 notation cutoffs, exponents that lose a leading zero, and
// three-digit exponents.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, -1e-7, 1e-6, 9.99999e-7,
	9.99e20, 1e21, -1e21, 1.5e300, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	1, -1, 0.1, 123456789, 1e20, 12345678901234567890, 0.000123, 1e-9, 2.5e-10,
	1.0 / 3, -2.0 / 3, 1e100, 1e-100,
}

// randomFloat draws a special value, a random normal at a random
// scale, or a random finite bit pattern.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return specialFloats[rng.Intn(len(specialFloats))]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randomFloats returns nil, an empty slice, or k random floats.
func randomFloats(rng *rand.Rand, k int) []float64 {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = randomFloat(rng)
	}
	return out
}

// randomMatrix is a d×d matrix that is symmetric, symmetric but for a
// few entries, or has random entries; occasionally it is not square,
// or its data is nil.
func randomMatrix(rng *rand.Rand, d int) *mat.Dense {
	switch rng.Intn(10) {
	case 0:
		return &mat.Dense{R: d, C: d}
	case 1:
		return &mat.Dense{R: 1, C: d, Data: randomFloats(rng, d)}
	}
	s := mat.NewDense(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			f := randomFloat(rng)
			s.Set(i, j, f)
			s.Set(j, i, f)
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		s.Data[rng.Intn(len(s.Data))] = randomFloat(rng)
	}
	return s
}

// TestEncodeModelMatchesReference is the encoder's oracle: over random
// models — edge-case floats, empty and nil lists, Σ shared by pointer,
// more distinct Σs than the encoder remembers, matrices too large for
// mirror reuse, zero and non-zero spread values — the hand encoder
// writes exactly the reference encoder's bytes.
func TestEncodeModelMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		d := 1 + rng.Intn(6)
		switch rng.Intn(10) {
		case 0:
			d = 20 + rng.Intn(13) // overflows the float text cache
		case 1:
			d = 33 + rng.Intn(3) // beyond the mirror table
		}
		var groups []*Group
		var pool []*mat.Dense
		for g := rng.Intn(40); g > 0; g-- {
			if len(pool) == 0 || rng.Intn(2) == 0 {
				pool = append(pool, randomMatrix(rng, d))
			}
			groups = append(groups, &Group{
				Members: randomExt(rng, n, rng.Intn(n+1)),
				Mu:      randomFloats(rng, d),
				Sigma:   pool[rng.Intn(len(pool))],
			})
		}
		var cons []constraint
		for c := rng.Intn(6); c > 0; c-- {
			ext := randomExt(rng, n, rng.Intn(n+1))
			if rng.Intn(2) == 0 {
				cons = append(cons, &locationConstraint{ext: ext, target: randomFloats(rng, d)})
				continue
			}
			value := randomFloat(rng)
			if rng.Intn(4) == 0 {
				value = 0
			}
			cons = append(cons, &spreadConstraint{
				ext: ext, w: randomFloats(rng, d), center: randomFloats(rng, d), value: value,
			})
		}
		version := uint64(0)
		if rng.Intn(4) > 0 {
			version = rng.Uint64() >> rng.Intn(64)
		}
		tol := randomFloat(rng)
		sameAsReference(t, fmt.Sprintf("seed %d", seed), version, n, d, tol, rng.Intn(20000)-100, groups, cons)
	}
}

// TestEncodeModelMatchesReferenceLive runs the oracle on models built
// by real commits: a random walk of location and spread commits, and
// the water model the SaveJSON benchmark serializes, through both the
// live Model and its published ModelVersion.
func TestEncodeModelMatchesReferenceLive(t *testing.T) {
	check := func(tag string, m *Model) {
		t.Helper()
		sameAsReference(t, tag, m.version, m.n, m.d, m.Tol, m.MaxSweeps, m.groups, m.cons)
		v := m.Snapshot()
		got, err := v.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := refModelJSON(m)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: ModelVersion.EncodeJSON differs from the reference: %s", tag, firstDiff(got, want))
		}
	}
	check("water", waterModel(t))
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, d := 50+rng.Intn(50), 1+rng.Intn(4)
		m, err := New(n, make(mat.Vec, d), mat.Eye(d))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d fresh", seed), m)
		for step := 0; step < 5; step++ {
			ext := randomExt(rng, n, 5+rng.Intn(n/2))
			yhat := make(mat.Vec, d)
			for j := range yhat {
				yhat[j] = rng.NormFloat64()
			}
			if m.CommitLocation(ext, yhat) != nil {
				continue
			}
			w := make(mat.Vec, d)
			for j := range w {
				w[j] = rng.NormFloat64()
			}
			w.Normalize()
			_ = m.CommitSpread(ext, w, yhat, 0.3+rng.Float64())
			check(fmt.Sprintf("seed %d step %d", seed, step), m)
		}
	}
}

// TestEncodeModelRejectsNonFinite checks that a NaN or infinite value
// in any float field (or an unknown constraint type) fails the encode,
// as it fails the reference, and that SaveJSON then writes nothing.
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
			tag := fmt.Sprintf("%v in field %d", bad, field)
			sameAsReference(t, tag, m.version, m.n, m.d, m.Tol, m.MaxSweeps, m.groups, m.cons)
			var w countingWriter
			if err := m.SaveJSON(&w); err == nil || w.writes != 0 {
				t.Fatalf("%s: SaveJSON err %v after %d writes", tag, err, w.writes)
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

// TestEncodeJSONOneAllocation pins the export path's allocation: the
// bytes path makes exactly one allocation, its output buffer, and
// SaveJSON writes the same bytes in one Write.
func TestEncodeJSONOneAllocation(t *testing.T) {
	m := waterModel(t)
	v := m.Snapshot()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := v.EncodeJSON(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("EncodeJSON made %v allocations, want 1", allocs)
	}
	b, _ := v.EncodeJSON()
	for _, save := range []func(io.Writer) error{m.SaveJSON, v.SaveJSON} {
		var w countingWriter
		if err := save(&w); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 || !bytes.Equal(w.Bytes(), b) {
			t.Fatalf("SaveJSON made %d writes; bytes equal EncodeJSON: %v", w.writes, bytes.Equal(w.Bytes(), b))
		}
	}
}

// firstDiff describes where a and b first differ, with some context.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d of %d/%d\n got …%s\nwant …%s",
		i, len(a), len(b), a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
}
