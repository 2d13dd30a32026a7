package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	if !s.Contains(64) || s.Contains(63) {
		t.Fatal("Contains wrong")
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 2 {
		t.Fatal("Remove failed")
	}
	if s.Contains(-1) || s.Contains(500) {
		t.Fatal("out-of-range Contains should be false")
	}
}

func TestFullAndTrim(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		f := Full(n)
		if f.Count() != n {
			t.Fatalf("Full(%d).Count() = %d", n, f.Count())
		}
	}
}

func TestIndicesRoundTrip(t *testing.T) {
	idx := []int{3, 17, 64, 65, 99}
	s := FromIndices(100, idx)
	got := s.Indices()
	if len(got) != len(idx) {
		t.Fatalf("Indices = %v", got)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Indices = %v, want %v", got, idx)
		}
	}
}

// reference map-based model for property testing.
type model map[int]bool

func buildPair(seed int64, n int) (*Set, *Set, model, model) {
	rng := rand.New(rand.NewSource(seed))
	a, b := New(n), New(n)
	ma, mb := model{}, model{}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			a.Add(i)
			ma[i] = true
		}
		if rng.Intn(3) == 0 {
			b.Add(i)
			mb[i] = true
		}
	}
	return a, b, ma, mb
}

func TestSetOpsAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		n := 1 + int(uint64(seed)%200)
		a, b, ma, mb := buildPair(seed, n)

		and := a.And(b)
		or := a.Or(b)
		diff := a.AndNot(b)
		ic := a.IntersectCount(b)

		wantIC := 0
		for i := 0; i < n; i++ {
			inA, inB := ma[i], mb[i]
			if and.Contains(i) != (inA && inB) {
				return false
			}
			if or.Contains(i) != (inA || inB) {
				return false
			}
			if diff.Contains(i) != (inA && !inB) {
				return false
			}
			if inA && inB {
				wantIC++
			}
		}
		if ic != wantIC || and.Count() != wantIC {
			return false
		}
		// And must equal AndInto result.
		dst := New(n)
		AndInto(dst, a, b)
		return dst.Equal(and)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAndIntoAliasing(t *testing.T) {
	a := FromIndices(70, []int{1, 5, 69})
	b := FromIndices(70, []int{5, 69})
	AndInto(a, a, b) // dst aliases s
	if a.Count() != 2 || !a.Contains(5) || !a.Contains(69) {
		t.Fatalf("aliased AndInto wrong: %v", a.Indices())
	}
}

func TestForEachOrder(t *testing.T) {
	s := FromIndices(200, []int{199, 0, 64, 127, 128})
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 64, 127, 128, 199}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	a := FromIndices(100, []int{1, 2, 3})
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Add(50)
	if a.Equal(c) {
		t.Fatal("clone aliases original")
	}
	if a.Equal(New(101)) {
		t.Fatal("different capacities must not be equal")
	}
}

func BenchmarkIntersectCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 2220
	x, y := New(n), New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			x.Add(i)
		}
		if rng.Intn(2) == 0 {
			y.Add(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.IntersectCount(y)
	}
}

func BenchmarkAndInto(b *testing.B) {
	n := 2220
	x, y, dst := Full(n), Full(n), New(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndInto(dst, x, y)
	}
}
