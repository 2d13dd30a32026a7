// Package bitset implements fixed-length dense bitsets used to represent
// subgroup extensions (index sets over the n data points). The beam
// search evaluates tens of thousands of candidate conjunctions per level,
// each an AND of per-condition bitsets, so the inner kernels (And,
// IntersectCount) are the hot path of the whole miner.
package bitset

import "math/bits"

// Set is a fixed-capacity bitset over [0, N).
type Set struct {
	n     int
	words []uint64
}

// New returns an empty bitset with capacity n.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Full returns a bitset with all n bits set.
func Full(n int) *Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears any bits at positions ≥ n in the last word.
func (s *Set) trim() {
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Len returns the capacity n.
func (s *Set) Len() int { return s.n }

// Add sets bit i.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i/64] |= 1 << uint(i%64)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i/64] &^= 1 << uint(i%64)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// Words exposes the backing word slice (bit i lives at words[i/64],
// position i%64). It is the raw form consumed by fused kernels that
// fold a trailing-zeros walk and per-point accumulation into one pass;
// callers must treat the slice as read-only.
func (s *Set) Words() []uint64 { return s.words }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// AndInto sets dst = s ∩ t, reusing dst's storage. All three must share
// the same capacity. dst may alias s or t.
func AndInto(dst, s, t *Set) {
	if dst.n != s.n || s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	for i := range dst.words {
		dst.words[i] = s.words[i] & t.words[i]
	}
}

// AndCountInto sets dst = s ∩ t and returns the number of set bits, in
// a single pass over the words. Same capacity and aliasing rules as
// AndInto. This is the inner kernel of the candidate-evaluation engine:
// the intersection and the support test of a candidate subgroup cost
// one traversal and zero allocations. The word loop is unrolled four
// wide so the AND/store/popcount streams pipeline instead of serializing
// on one count accumulator per word.
func AndCountInto(dst, s, t *Set) int {
	if dst.n != s.n || s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	dw := dst.words
	sw := s.words[:len(dw)]
	tw := t.words[:len(dw)]
	c := 0
	i := 0
	for ; i+4 <= len(dw); i += 4 {
		w0 := sw[i] & tw[i]
		w1 := sw[i+1] & tw[i+1]
		w2 := sw[i+2] & tw[i+2]
		w3 := sw[i+3] & tw[i+3]
		dw[i], dw[i+1], dw[i+2], dw[i+3] = w0, w1, w2, w3
		c += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(dw); i++ {
		w := sw[i] & tw[i]
		dw[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// OrCountInto sets dst = s ∪ t and returns the number of set bits —
// the union analogue of AndCountInto, same capacity and aliasing rules,
// same four-wide word batching.
func OrCountInto(dst, s, t *Set) int {
	if dst.n != s.n || s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	dw := dst.words
	sw := s.words[:len(dw)]
	tw := t.words[:len(dw)]
	c := 0
	i := 0
	for ; i+4 <= len(dw); i += 4 {
		w0 := sw[i] | tw[i]
		w1 := sw[i+1] | tw[i+1]
		w2 := sw[i+2] | tw[i+2]
		w3 := sw[i+3] | tw[i+3]
		dw[i], dw[i+1], dw[i+2], dw[i+3] = w0, w1, w2, w3
		c += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(dw); i++ {
		w := sw[i] | tw[i]
		dw[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// And returns s ∩ t as a new bitset.
func (s *Set) And(t *Set) *Set {
	out := New(s.n)
	AndInto(out, s, t)
	return out
}

// AndNot returns s \ t as a new bitset.
func (s *Set) AndNot(t *Set) *Set {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	out := New(s.n)
	for i := range out.words {
		out.words[i] = s.words[i] &^ t.words[i]
	}
	return out
}

// IntersectCount returns |s ∩ t| without allocating. Word-batched four
// wide like the CountInto kernels — the binary-target sufficient
// statistics and the grouped scoring paths call this in tight loops.
func (s *Set) IntersectCount(t *Set) int {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	sw := s.words
	tw := t.words[:len(sw)]
	c := 0
	i := 0
	for ; i+4 <= len(sw); i += 4 {
		c += bits.OnesCount64(sw[i]&tw[i]) + bits.OnesCount64(sw[i+1]&tw[i+1]) +
			bits.OnesCount64(sw[i+2]&tw[i+2]) + bits.OnesCount64(sw[i+3]&tw[i+3])
	}
	for ; i < len(sw); i++ {
		c += bits.OnesCount64(sw[i] & tw[i])
	}
	return c
}

// Equal reports whether s and t contain exactly the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn with every set index in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// IterateInto appends the set indices in increasing order to buf and
// returns the extended slice. Passing buf[:0] of a reusable slice makes
// repeated index extraction allocation-free once the buffer has grown
// to the working-set size (the optimistic-estimate loops of the exact
// searches call this once per search node).
func (s *Set) IterateInto(buf []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			buf = append(buf, wi*64+b)
			w &= w - 1
		}
	}
	return buf
}

// Indices returns the set indices in increasing order.
func (s *Set) Indices() []int {
	return s.IterateInto(make([]int, 0, s.Count()))
}

// FromIndices builds a bitset of capacity n containing exactly idx.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}
