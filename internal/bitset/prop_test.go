package bitset

import (
	"math/rand"
	"testing"
)

// randomSet draws a bitset of capacity n with each bit set with
// probability p.
func randomSet(rng *rand.Rand, n int, p float64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			s.Add(i)
		}
	}
	return s
}

// TestAndIntoMatchesAnd is the property test backing the engine's
// scratch-reuse path: for random operands of awkward capacities
// (crossing word boundaries), AndInto into a scratch set must produce
// exactly the same bits as the allocating And, including when dst
// aliases either operand.
func TestAndIntoMatchesAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a := randomSet(rng, n, rng.Float64())
		b := randomSet(rng, n, rng.Float64())
		want := a.And(b)

		dst := randomSet(rng, n, 0.5) // dirty scratch must be overwritten
		AndInto(dst, a, b)
		if !dst.Equal(want) {
			t.Fatalf("n=%d: AndInto differs from And", n)
		}

		// Aliasing: dst == s and dst == t.
		sa := a.Clone()
		AndInto(sa, sa, b)
		if !sa.Equal(want) {
			t.Fatalf("n=%d: AndInto with dst aliasing s differs", n)
		}
		tb := b.Clone()
		AndInto(tb, a, tb)
		if !tb.Equal(want) {
			t.Fatalf("n=%d: AndInto with dst aliasing t differs", n)
		}
	}
}

func TestAndCountIntoMatchesAndPlusCount(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a := randomSet(rng, n, rng.Float64())
		b := randomSet(rng, n, rng.Float64())
		want := a.And(b)
		dst := randomSet(rng, n, 0.5)
		got := AndCountInto(dst, a, b)
		if !dst.Equal(want) {
			t.Fatalf("n=%d: AndCountInto bits differ from And", n)
		}
		if got != want.Count() {
			t.Fatalf("n=%d: AndCountInto count %d, want %d", n, got, want.Count())
		}
		if got != a.IntersectCount(b) {
			t.Fatalf("n=%d: AndCountInto disagrees with IntersectCount", n)
		}
	}
}

// Or returns s ∪ t as a new bitset: the naive reference OrCountInto
// is checked against.
func (s *Set) Or(t *Set) *Set {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	out := New(s.n)
	for i := range out.words {
		out.words[i] = s.words[i] | t.words[i]
	}
	return out
}

// TestOrCountIntoMatchesOrPlusCount mirrors the AndCountInto property
// test for the union kernel, including the aliasing cases and the
// batched/remainder word-boundary shapes.
func TestOrCountIntoMatchesOrPlusCount(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(600) // > 4 words exercises the unrolled batches
		a := randomSet(rng, n, rng.Float64())
		b := randomSet(rng, n, rng.Float64())
		want := a.Or(b)
		dst := randomSet(rng, n, 0.5)
		got := OrCountInto(dst, a, b)
		if !dst.Equal(want) {
			t.Fatalf("n=%d: OrCountInto bits differ from Or", n)
		}
		if got != want.Count() {
			t.Fatalf("n=%d: OrCountInto count %d, want %d", n, got, want.Count())
		}
		sa := a.Clone()
		if OrCountInto(sa, sa, b); !sa.Equal(want) {
			t.Fatalf("n=%d: OrCountInto with dst aliasing s differs", n)
		}
		tb := b.Clone()
		if OrCountInto(tb, a, tb); !tb.Equal(want) {
			t.Fatalf("n=%d: OrCountInto with dst aliasing t differs", n)
		}
	}
}

func TestCountIntoCapacityMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(dst, s, t *Set) int{
		"AndCountInto": AndCountInto, "OrCountInto": OrCountInto,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: capacity mismatch must panic", name)
				}
			}()
			fn(New(10), New(10), New(11))
		}()
	}
}

func TestIterateIntoMatchesIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	buf := make([]int, 0, 64) // reused across trials, like the engine does
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		s := randomSet(rng, n, rng.Float64())
		want := s.Indices()
		buf = s.IterateInto(buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("n=%d: IterateInto yielded %d indices, want %d", n, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: index %d = %d, want %d", n, i, buf[i], want[i])
			}
		}
	}
}

func TestAndIntoCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch must panic")
		}
	}()
	AndInto(New(10), New(10), New(11))
}
