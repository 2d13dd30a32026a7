package background

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// ModelVersion is one immutable, atomically published state of a
// background model: the group partition and per-group parameters, the
// dense labeling, and the committed constraint list, stamped with a
// monotonically increasing version number. Mines (and every other
// read path) run against a ModelVersion and never observe a commit in
// progress: a commit builds the *next* version on copied state and
// publishes it with a single atomic pointer swap, so any number of
// readers proceed lock-free while the writer works — the MVCC
// snapshot-isolation shape, applied to belief state.
//
// Everything reachable from a ModelVersion is frozen. Member bitsets
// are never mutated in place. A covariance matrix is rewritten in place
// only while it is private to the refit that allocated it and held
// solely by groups inside the constraint being applied, whose factor
// caches are empty; once reachable from a published version, a clone
// or a fork source, a matrix is only ever replaced, never written.
// Group means are deep-copied by the commit that mutates them, and a
// labels slice is never written once built (a refining split builds a
// new one). The only mutation a reader can cause is filling a group's
// empty Cholesky cache, which is an atomic idempotent store of a
// deterministic factorization; the writer never fills one. A mine
// against a version is therefore byte-identical regardless of
// concurrent commits.
type ModelVersion struct {
	version uint64
	n, d    int
	groups  []*Group
	labels  []int32
	cons    []constraint

	tol       float64
	maxSweeps int
}

// Reader is the read-only model surface shared by the live *Model and
// an immutable *ModelVersion. Scoring and optimization code
// (internal/si, internal/spreadopt, internal/experiments) accepts a
// Reader so callers can evaluate either against the live working
// state (single-threaded tools, tests) or against a pinned version
// (the serving path, where mines run concurrently with commits).
type Reader interface {
	// N returns the number of data points.
	N() int
	// D returns the target dimensionality.
	D() int
	// NumGroups returns the number of parameter groups.
	NumGroups() int
	// Groups exposes the parameter groups for read-only inspection.
	Groups() []*Group
	// Labels returns the dense per-point group labeling.
	Labels() []int32
	// SubgroupMeanMarginal returns the background marginal of the
	// subgroup mean statistic f_I(Y).
	SubgroupMeanMarginal(ext *bitset.Set) (mat.Vec, *mat.Dense, error)
	// CountByGroup accumulates |ext ∩ group| per group.
	CountByGroup(ext *bitset.Set, counts []int32) []int32
	// DistinctSigmaChols returns the shared factorization when all
	// groups have an identical covariance.
	DistinctSigmaChols() (*mat.Cholesky, bool, error)
	// ExpectedSpread returns E[g_I^w(Y)] for an extension, direction
	// and center.
	ExpectedSpread(ext *bitset.Set, w, center mat.Vec) (float64, error)
	// Version returns the version stamp of the state being read.
	Version() uint64
}

var (
	_ Reader = (*Model)(nil)
	_ Reader = (*ModelVersion)(nil)
)

// Version returns the version stamp. Stamps start at 1 and advance by
// one per successful commit within a model lineage.
func (v *ModelVersion) Version() uint64 { return v.version }

// N returns the number of data points.
func (v *ModelVersion) N() int { return v.n }

// D returns the target dimensionality.
func (v *ModelVersion) D() int { return v.d }

// NumGroups returns the number of parameter groups.
func (v *ModelVersion) NumGroups() int { return len(v.groups) }

// NumConstraints returns the number of committed patterns.
func (v *ModelVersion) NumConstraints() int { return len(v.cons) }

// Groups exposes the parameter groups. Callers must treat every group
// as read-only.
func (v *ModelVersion) Groups() []*Group { return v.groups }

// Labels returns the dense per-point group labeling: Labels()[i]
// indexes Groups() at the group containing point i. The slice is
// immutable for the lifetime of the version.
func (v *ModelVersion) Labels() []int32 { return v.labels }

// SubgroupMeanMarginal implements Reader against this version.
func (v *ModelVersion) SubgroupMeanMarginal(ext *bitset.Set) (mat.Vec, *mat.Dense, error) {
	return subgroupMeanMarginal(v.groups, v.d, ext)
}

// CountByGroup implements Reader against this version.
func (v *ModelVersion) CountByGroup(ext *bitset.Set, counts []int32) []int32 {
	return countByGroup(v.labels, len(v.groups), ext, counts)
}

// DistinctSigmaChols implements Reader against this version.
func (v *ModelVersion) DistinctSigmaChols() (*mat.Cholesky, bool, error) {
	return distinctSigmaChols(v.groups)
}

// ExpectedSpread implements Reader against this version.
func (v *ModelVersion) ExpectedSpread(ext *bitset.Set, w, center mat.Vec) (float64, error) {
	return expectedSpread(v.groups, ext, w, center)
}

// Digest returns a 64-bit FNV-1a hash of the version's parameters:
// the bits of every group's µ and then Σ, in group order. It is read
// straight from the in-memory floats, so it costs no encoding, and it
// is fixed and unseeded, so any process computes the same digest for
// the same belief state. A session snapshot stores it, and a restore
// that replays the session's commits compares it with the rebuilt
// model's: a refit whose floats moved by one ulp changes it.
func (v *ModelVersion) Digest() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	hash := func(fs []float64) {
		for _, f := range fs {
			b := math.Float64bits(f)
			for i := 0; i < 64; i += 8 {
				h ^= b >> i & 0xff
				h *= prime
			}
		}
	}
	for _, g := range v.groups {
		hash(g.Mu)
		hash(g.Sigma.Data)
	}
	return h
}

// Fork returns a writable Model whose belief state starts at exactly
// this version — the what-if primitive behind spread previews and any
// other speculative commit. The fork shares the version's groups (its
// first commit copies them before writing, like every commit) and its
// labels (never written; a refining split builds new ones), so
// forking is O(constraints), and its commits publish versions on
// an independent lineage continuing from this stamp; the source model
// is never affected. The fork's constraint caches start empty: its
// first refit re-applies each satisfied constraint once (a clean
// early return, no parameter change), which reproduces the source's
// float trajectory exactly. A fork is either discarded or, after one
// or more commits, handed back to its source model with Model.Adopt.
func (v *ModelVersion) Fork() *Model {
	m := &Model{
		n: v.n, d: v.d,
		groups:    v.groups,
		labels:    v.labels,
		cons:      append([]constraint(nil), v.cons...),
		epoch:     1,
		version:   v.version,
		forkOf:    v,
		Tol:       v.tol,
		MaxSweeps: v.maxSweeps,
	}
	m.cur.Store(v)
	return m
}

// ForkOf returns the version a Fork started from, or nil for a model
// built any other way or already adopted. A fork whose ForkOf is no
// longer its source's Snapshot is stale: Adopt refuses it.
func (m *Model) ForkOf() *ModelVersion { return m.forkOf }

// Adopt makes f's belief state the model's own, in place of the commits
// that would compute the same state again. f must be a Fork of the
// model's published version on which k ≥ 1 commits succeeded, under
// the model's Tol and MaxSweeps. Those commits ran the same splits and
// the same coordinate descents the same live commits run (Fork
// reproduces the source's float trajectory), so f holds the state the
// live commits would publish, bit for bit. Adopt takes over f's groups,
// labeling, constraints, constraint caches and published version,
// which becomes the model's next version: k commits publish once, and
// no reader ever sees a state between them. Nothing is copied or refit.
//
// Adopt reports false, changing nothing, when f does not fit: a commit
// published another version since f was forked, f was forked from
// another version or model, or f made no commit. The caller then
// commits the patterns itself. Adopt does not check which patterns f
// committed; keeping f next to its patterns is the caller's part.
//
// On success f is dead: its state now belongs to the model, so Adopt
// clears f's references to it and f must not be used again.
func (m *Model) Adopt(f *Model) bool {
	base := f.forkOf
	if base == nil || m.cur.Load() != base ||
		f.Tol != m.Tol || f.MaxSweeps != m.MaxSweeps ||
		len(f.cons) <= len(base.cons) ||
		f.version != base.version+uint64(len(f.cons)-len(base.cons)) {
		return false
	}
	for i, c := range base.cons {
		if f.cons[i] != c {
			return false
		}
	}
	m.groups, m.labels, m.cons, m.conState = f.groups, f.labels, f.cons, f.conState
	m.epoch, m.version, m.LastSweeps = f.epoch, f.version, f.LastSweeps
	m.cur.Store(f.cur.Load())
	f.groups, f.labels, f.cons, f.conState, f.forkOf = nil, nil, nil, nil, nil
	f.cur.Store(nil)
	return true
}

// subgroupMeanMarginal is the shared implementation of
// Model.SubgroupMeanMarginal and ModelVersion.SubgroupMeanMarginal:
// µ_I = Σ_{i∈I} µᵢ/|I| and Σ_I = Σ_{i∈I} Σᵢ/|I|² (see DESIGN.md §2 on
// the paper's missing 1/|I| factor). The extension need not align
// with group boundaries.
func subgroupMeanMarginal(groups []*Group, d int, ext *bitset.Set) (mu mat.Vec, cov *mat.Dense, err error) {
	cnt := ext.Count()
	if cnt == 0 {
		return nil, nil, ErrNoPoints
	}
	mu = make(mat.Vec, d)
	cov = mat.NewDense(d, d)
	for _, g := range groups {
		ic := g.Members.IntersectCount(ext)
		if ic == 0 {
			continue
		}
		w := float64(ic)
		mu.AddScaled(w, g.Mu)
		cov.AddScaled(w, g.Sigma)
	}
	mu.Scale(1 / float64(cnt))
	cov.Scale(1 / float64(cnt*cnt))
	return mu, cov, nil
}

// countByGroup is the shared fused sufficient-statistics kernel: one
// trailing-zeros pass over ext accumulating label-indexed counts,
// cost O(n/64 + |ext|) regardless of the group count.
func countByGroup(labels []int32, numGroups int, ext *bitset.Set, counts []int32) []int32 {
	if cap(counts) < numGroups {
		counts = make([]int32, numGroups)
	} else {
		counts = counts[:numGroups]
		for i := range counts {
			counts[i] = 0
		}
	}
	for wi, w := range ext.Words() {
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			counts[labels[base+b]]++
		}
	}
	return counts
}

// distinctSigmaChols is the shared implementation of
// DistinctSigmaChols. Location-only models share one Σ by pointer
// (split never copies), so the common case is a pointer compare; the
// value compare remains for matrices that are equal but distinct.
func distinctSigmaChols(groups []*Group) (chol *mat.Cholesky, ok bool, err error) {
	if len(groups) == 0 {
		return nil, false, nil
	}
	first := groups[0]
	for _, g := range groups[1:] {
		if g.Sigma != first.Sigma && g.Sigma.MaxAbsDiff(first.Sigma) > 0 {
			return nil, false, nil
		}
	}
	c, err := first.Chol()
	if err != nil {
		return nil, false, err
	}
	return c, true, nil
}

// expectedSpread is the shared implementation of ExpectedSpread:
// (1/|I|) Σ_{i∈I} [ wᵀΣᵢw + (wᵀ(µᵢ − center))² ].
func expectedSpread(groups []*Group, ext *bitset.Set, w, center mat.Vec) (float64, error) {
	cnt := ext.Count()
	if cnt == 0 {
		return 0, ErrNoPoints
	}
	var sum float64
	for _, g := range groups {
		ic := g.Members.IntersectCount(ext)
		if ic == 0 {
			continue
		}
		s := g.Sigma.QuadForm(w)
		b := w.Dot(g.Mu.Sub(center))
		sum += float64(ic) * (s + b*b)
	}
	return sum / float64(cnt), nil
}
