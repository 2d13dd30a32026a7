// Package background implements the FORSIED background distribution of
// §II-B of the paper: a product of independent multivariate normal
// distributions, one per data point, which starts as the MaxEnt
// distribution subject to the user's prior beliefs (a mean vector µ and
// covariance matrix Σ for every point, Eq. 3) and evolves as location
// and spread patterns are shown to the user (Eq. 4).
//
// Per-point parameters are stored once per group: the equivalence class
// of points that belong to exactly the same set of committed pattern
// extensions (footnote 2 of the paper: the number of distinct (µᵢ, Σᵢ)
// stays small). Committing a pattern splits the crossing groups and then
// runs the paper's coordinate descent — cyclic I-projections onto each
// stored constraint — until all expectation constraints hold.
//
// The descent is incremental: constraints and groups form a dependency
// graph (each constraint depends on exactly the groups inside its
// extension), groups carry a version bumped on every µ/Σ mutation, and a
// sweep only re-applies constraints whose dependencies changed since
// they were last seen satisfied. Because apply already early-returns
// without mutating anything when the violation is ≤ Tol/2, skipping a
// constraint with unchanged inputs reproduces the exact float trajectory
// of the full cyclic descent (see DESIGN.md §7 for the argument and the
// property test pinning it).
package background

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// ErrNoPoints is returned when an update is requested for an empty
// extension.
var ErrNoPoints = errors.New("background: empty extension")

// ErrDeadline is returned (wrapped) when Model.Deadline expires before
// the coordinate descent converges. The failing Commit* rolls back
// atomically, so the model is left exactly as before the commit.
var ErrDeadline = errors.New("background: refit deadline exceeded")

// ErrInfeasible is returned (wrapped) when the committed constraints
// cannot be enforced: the coordinate descent does not converge within
// MaxSweeps, or a spread update cannot bracket its multiplier, diverges
// or makes a covariance numerically singular. Like every failed commit,
// the model is rolled back to its pre-commit state.
var ErrInfeasible = errors.New("background: constraints infeasible")

// Group is a set of data points sharing background parameters.
type Group struct {
	Members *bitset.Set
	Count   int
	Mu      mat.Vec
	Sigma   *mat.Dense

	// chol caches Sigma's factorization. It is the one piece of group
	// state a *reader* may fill (lazily, on first use), so once groups
	// are reachable from a published ModelVersion the cache must be
	// filled with an atomic idempotent store: concurrent mines racing
	// on the fill each publish a bit-identical factorization of the
	// same immutable Sigma, and either winning is indistinguishable.
	chol atomic.Pointer[mat.Cholesky]

	// version counts µ/Σ mutations of this group. Constraints stamp the
	// versions of their dependency groups after each apply; a stamp
	// mismatch marks the constraint dirty. Fresh groups (split halves,
	// snapshot copies) start wherever their source was — correctness
	// only needs "unchanged value ⇒ unchanged version" within one
	// partition epoch, and every partition change invalidates stamps
	// wholesale via Model.epoch.
	version uint64
}

// Chol returns a cached Cholesky factorization of the group covariance.
// Safe for concurrent callers on a published group.
func (g *Group) Chol() (*mat.Cholesky, error) {
	if c := g.chol.Load(); c != nil {
		return c, nil
	}
	c, err := mat.NewCholesky(g.Sigma)
	if err != nil {
		return nil, err
	}
	g.chol.Store(c)
	return c, nil
}

// derive builds a group that inherits this group's Sigma, cached
// factorization and version counter, with the given membership and
// mean. Every group copy in the package (commit forks, split halves,
// clones) goes through here so the shared-by-pointer discipline and
// the version-preservation invariant live in one place.
func (g *Group) derive(members *bitset.Set, count int, mu mat.Vec) *Group {
	ng := &Group{
		Members: members,
		Count:   count,
		Mu:      mu,
		Sigma:   g.Sigma,
		version: g.version,
	}
	ng.chol.Store(g.chol.Load())
	return ng
}

// constraint is one committed pattern, replayed during coordinate
// descent. Extensions always align with group boundaries because Commit*
// splits groups first.
type constraint interface {
	// extension returns the constraint's subgroup, used to (re)build its
	// dependency edges after a partition change.
	extension() *bitset.Set
	// apply performs the closed-form single-constraint I-projection and
	// returns the expectation violation before the update. The conState
	// supplies the cached dependency groups and records the outcome.
	apply(m *Model, st *conState) (violation float64, err error)
}

// locationConstraint pins E[f_I(Y)] = target (Eq. 6).
type locationConstraint struct {
	ext    *bitset.Set
	target mat.Vec // ŷ_I
}

func (c *locationConstraint) extension() *bitset.Set { return c.ext }

// spreadConstraint pins E[g_I^w(Y)] = value (Eq. 9), with the variance
// statistic centered at the (constant) subgroup mean ŷ_I.
type spreadConstraint struct {
	ext    *bitset.Set
	w      mat.Vec
	center mat.Vec // ŷ_I
	value  float64 // v̂
}

func (c *spreadConstraint) extension() *bitset.Set { return c.ext }

// conState is the model-owned mutable side of one committed constraint:
// its edges in the constraint dependency graph plus the dirty-tracking
// bookkeeping. It lives on the Model (not the constraint) so clones get
// independent state while sharing the immutable constraint data.
type conState struct {
	// epoch is the Model.epoch the gidx cache was built (or remapped)
	// at; any other value means the cache is stale and must be rebuilt
	// before use.
	epoch uint64
	// gidx indexes Model.groups at the groups fully inside the
	// constraint's extension — its dependencies. Valid when epoch
	// matches.
	gidx  []int32
	total int
	// stamps[i] is groups[gidx[i]].version right after the last apply.
	stamps []uint64
	// clean reports that the last apply saw violation ≤ Tol/2 and
	// early-returned without mutating anything. Together with matching
	// stamps it licenses skipping the next apply: identical inputs
	// produce the identical violation and the identical early return.
	clean     bool
	violation float64
}

// record stamps the current dependency versions and the apply outcome.
func (st *conState) record(m *Model, violation float64, clean bool) {
	st.violation = violation
	st.clean = clean
	stamps := st.stamps[:len(st.gidx)]
	for j, gi := range st.gidx {
		stamps[j] = m.groups[gi].version
	}
	st.stamps = stamps
}

// applyScratch is the per-model reusable memory of the two apply paths,
// so steady-state coordinate descent allocates nothing. Commits are
// single-threaded per model, so one scratch per model suffices.
type applyScratch struct {
	muBar  mat.Vec
	resid  mat.Vec
	lambda mat.Vec
	sigLam mat.Vec // Σ·λ, one slot per distinct Σ (flat, d-strided)

	sigmaBar *mat.Dense
	chol     mat.Cholesky

	// Spread-apply state: per distinct covariance matrix (sigs, indexed
	// via the pointer-keyed map) and per inside group (stats).
	sigIdx map[*mat.Dense]int32
	sigs   []sigStat
	stats  []gstat
	sigW   mat.Vec // Σ·w, one slot per distinct Σ (flat, d-strided)

	// born holds the covariance matrices the running refit allocated,
	// keyed by pointer, with the number of groups holding each and its
	// factorization. Only m.groups can reach a born matrix: it was
	// created after beginCommit forked the published state and split
	// ran, so no published version, clone or fork source holds it. A
	// spread apply whose inside groups include every holder of a born
	// matrix rewrites it in place. Cleared on refit entry and exit;
	// allocated by the first mutating spread apply.
	born map[*mat.Dense]bornSigma
}

// bornSigma is one entry of applyScratch.born.
type bornSigma struct {
	holders int32
	chol    *mat.Cholesky
}

// vecZ returns *p resized to n and zeroed.
func (sc *applyScratch) vecZ(p *mat.Vec, n int) mat.Vec {
	v := sc.vec(p, n)
	for i := range v {
		v[i] = 0
	}
	return v
}

// vec returns *p resized to n, contents unspecified.
func (sc *applyScratch) vec(p *mat.Vec, n int) mat.Vec {
	if cap(*p) < n {
		*p = make(mat.Vec, n)
	}
	*p = (*p)[:n]
	return *p
}

type sigStat struct {
	sigma  *mat.Dense
	sigmaW mat.Vec // filled only on the mutating path
	s      float64 // wᵀΣw
	inside int32   // inside groups holding sigma

	// The updated matrix and its factorization (mutating path only).
	next *mat.Dense
	chol *mat.Cholesky
}

type gstat struct {
	gi    int32 // index into Model.groups
	sig   int32 // index into applyScratch.sigs
	s, b  float64
	count float64
}

// Model is the background distribution.
type Model struct {
	n, d   int
	groups []*Group
	// labels is the dense per-point group labeling: labels[i] is the
	// index into groups of the group containing point i. It is the
	// sufficient statistic the fused scoring kernels key on — one
	// trailing-zeros walk over an extension accumulates per-group counts
	// without a bitset pass per group. Maintained by split (and restored
	// on commit rollback), so it is always consistent with groups.
	labels []int32
	// gcScratch is the reusable per-group count buffer of the fused
	// label kernel (commits are single-threaded, so one buffer per
	// model suffices).
	gcScratch []int32
	// remap is split's reusable old-index → new-index buffer.
	remap []int32

	cons []constraint
	// conState is parallel to cons: the dependency-graph caches. Grown
	// lazily by refit so deserialized and hand-built models need no
	// extra setup.
	conState []conState
	// epoch identifies the current group partition; it is bumped by
	// split, commit rollback and any wholesale replacement of groups.
	// conState caches carrying another epoch are stale. Starts at 1 so
	// the zero conState is never mistaken for valid.
	epoch uint64

	// version stamps the published belief state: it advances by one per
	// successful commit and is carried by the ModelVersion in cur.
	// Mutated only by the (single) writer.
	version uint64
	// cur is the atomically published immutable snapshot of the model.
	// Commits build the next state on copied groups/labels (see
	// beginCommit) and swing this pointer once, so readers holding a
	// *ModelVersion never observe a commit in progress and never block
	// behind one.
	cur atomic.Pointer[ModelVersion]

	scratch applyScratch

	// noSkip disables dirty-constraint skipping, forcing every sweep to
	// re-apply every constraint — the reference full cyclic descent the
	// incremental property tests compare against.
	noSkip bool
	// cloneSpread disables in-place covariance rewrites, forcing every
	// spread update to clone Σ — the reference the in-place property
	// tests compare against.
	cloneSpread bool

	// Tol is the maximum allowed relative expectation violation after
	// Commit; the coordinate descent loops until all constraints hold
	// within Tol (violations are normalized by the constraint's scale).
	Tol float64
	// MaxSweeps bounds the coordinate descent; with disjoint extensions a
	// single sweep suffices (the projections are independent).
	MaxSweeps int
	// Deadline, when non-zero, bounds the wall time of the coordinate
	// descent the same way search.Params.Deadline bounds a beam search:
	// refit checks it once per sweep and the commit fails with an error
	// wrapping ErrDeadline (and rolls back atomically) when it expires.
	// Zero means no time budget. Transient: not serialized.
	Deadline time.Time

	// LastSweeps records how many coordinate descent sweeps the most
	// recent Commit used, for diagnostics and the Table II experiment.
	LastSweeps int
}

// New creates the initial MaxEnt background distribution p0: every point
// shares the prior mean mu and covariance sigma (Eq. 3). sigma must be
// symmetric positive definite.
func New(n int, mu mat.Vec, sigma *mat.Dense) (*Model, error) {
	if n <= 0 {
		return nil, fmt.Errorf("background: need n > 0, got %d", n)
	}
	d := len(mu)
	if sigma.R != d || sigma.C != d {
		return nil, fmt.Errorf("background: sigma is %dx%d for %d-dim mean",
			sigma.R, sigma.C, d)
	}
	sigma = sigma.Clone()
	chol, err := mat.NewCholesky(sigma)
	if err != nil {
		return nil, fmt.Errorf("background: prior covariance: %w", err)
	}
	g := &Group{
		Members: bitset.Full(n),
		Count:   n,
		Mu:      mu.Clone(),
		Sigma:   sigma,
	}
	g.chol.Store(chol) // the SPD validation doubles as the cache fill
	m := &Model{
		n:         n,
		d:         d,
		groups:    []*Group{g},
		labels:    make([]int32, n),
		epoch:     1,
		version:   1,
		Tol:       1e-8,
		MaxSweeps: 5000,
	}
	m.publishCurrent()
	return m, nil
}

// Snapshot returns the most recently published immutable version of
// the model. Safe for concurrent callers; the returned version is
// valid forever (it is never mutated, only superseded).
func (m *Model) Snapshot() *ModelVersion { return m.cur.Load() }

// Version returns the version stamp of the current belief state. Like
// every non-Snapshot read of a live Model it belongs to the writer;
// concurrent readers use Snapshot().Version().
func (m *Model) Version() uint64 { return m.version }

// publishCurrent publishes the model's current state under its current
// version stamp (initial construction, clone, deserialization).
func (m *Model) publishCurrent() {
	m.cur.Store(&ModelVersion{
		version:   m.version,
		n:         m.n,
		d:         m.d,
		groups:    m.groups,
		labels:    m.labels,
		cons:      m.cons,
		tol:       m.Tol,
		maxSweeps: m.MaxSweeps,
	})
}

// publish stamps the next version and publishes it — the single
// linearization point of a successful commit.
func (m *Model) publish() {
	m.version++
	m.publishCurrent()
}

// N returns the number of data points.
func (m *Model) N() int { return m.n }

// D returns the target dimensionality.
func (m *Model) D() int { return m.d }

// NumGroups returns the current number of parameter groups.
func (m *Model) NumGroups() int { return len(m.groups) }

// NumConstraints returns the number of committed patterns.
func (m *Model) NumConstraints() int { return len(m.cons) }

// Groups exposes the parameter groups for read-only inspection.
func (m *Model) Groups() []*Group { return m.groups }

// Labels exposes the per-point group labeling: Labels()[i] indexes
// Groups() at the group containing point i. Callers must treat the
// slice as read-only; it is invalidated by the next Commit*.
func (m *Model) Labels() []int32 { return m.labels }

// rebuildLabels recomputes the dense labeling from the group partition.
// Groups partition the points, so the total work is one trailing-zeros
// walk over n bits regardless of the group count.
func (m *Model) rebuildLabels() {
	if len(m.labels) != m.n {
		m.labels = make([]int32, m.n)
	}
	for gi, g := range m.groups {
		id := int32(gi)
		for wi, w := range g.Members.Words() {
			base := wi * 64
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				m.labels[base+b] = id
			}
		}
	}
}

// Clone returns a deep copy of the model (used by what-if scoring). The
// dependency-graph caches are copied too — group order is preserved, so
// the index-based conState edges stay valid and the clone's first refit
// skips exactly the constraints the original would have skipped.
func (m *Model) Clone() *Model {
	out := &Model{
		n: m.n, d: m.d,
		epoch:       m.epoch,
		version:     m.version,
		Tol:         m.Tol,
		MaxSweeps:   m.MaxSweeps,
		Deadline:    m.Deadline,
		noSkip:      m.noSkip,
		cloneSpread: m.cloneSpread,
	}
	out.groups = make([]*Group, len(m.groups))
	for i, g := range m.groups {
		// Sigma (and its factorization cache) is shared, not copied: a
		// spread update rewrites in place only matrices its own refit
		// allocated (see spreadConstraint.apply), and these predate any
		// later refit of either model, so sharing is safe and keeps
		// Clone O(groups·d) for the location-only regime where
		// Theorem 1 leaves Σ untouched.
		out.groups[i] = g.derive(g.Members.Clone(), g.Count, g.Mu.Clone())
	}
	out.labels = append([]int32(nil), m.labels...)
	out.cons = append([]constraint(nil), m.cons...)
	out.conState = make([]conState, len(m.conState))
	for i := range m.conState {
		st := &m.conState[i]
		out.conState[i] = conState{
			epoch:     st.epoch,
			gidx:      append([]int32(nil), st.gidx...),
			total:     st.total,
			stamps:    append([]uint64(nil), st.stamps...),
			clean:     st.clean,
			violation: st.violation,
		}
	}
	out.publishCurrent()
	return out
}

// GroupOf returns the group containing point i, resolved through the
// dense labeling in O(1).
func (m *Model) GroupOf(i int) *Group {
	if i < 0 || i >= m.n {
		return nil
	}
	return m.groups[m.labels[i]]
}

// split refines the partition so every group is fully inside or outside
// ext, and rebuilds the dense labeling to match. The two halves of a
// split group share the parent's Sigma (and factorization cache) — a
// location commit never touches covariances (Theorem 1), and a spread
// commit replaces every matrix that existed before its refit instead of
// mutating it, so the halves stay correct with zero d×d copies until a
// spread update actually diverges them.
//
// Splitting starts a new partition epoch. Constraint caches whose
// dependency groups all survived intact are remapped to the new indices
// in place — their stamps, clean flags and cached violations stay valid
// because the surviving groups are the same objects with the same
// parameters. Caches that lost a group to the split are left stale and
// rebuilt by the next refit. This is what makes a commit's descent cost
// proportional to the constraints it actually interacts with instead of
// the total committed count.
func (m *Model) split(ext *bitset.Set) {
	if cap(m.remap) < len(m.groups) {
		m.remap = make([]int32, len(m.groups))
	}
	remap := m.remap[:len(m.groups)]
	out := make([]*Group, 0, len(m.groups)+2)
	for gi, g := range m.groups {
		in := g.Members.And(ext)
		ic := in.Count()
		if ic == 0 || ic == g.Count {
			remap[gi] = int32(len(out))
			out = append(out, g)
			continue
		}
		remap[gi] = -1
		outside := g.Members.AndNot(ext)
		out = append(out,
			g.derive(in, ic, g.Mu.Clone()),
			g.derive(outside, g.Count-ic, g.Mu.Clone()),
		)
	}
	prev := m.epoch
	m.epoch++
	m.groups = out
	m.rebuildLabels()
	for i := range m.conState {
		st := &m.conState[i]
		if st.epoch != prev {
			continue // already stale; refit will rebuild it
		}
		ok := true
		for j, gi := range st.gidx {
			ni := remap[gi]
			if ni < 0 {
				ok = false
				break
			}
			st.gidx[j] = ni
		}
		if ok {
			st.epoch = m.epoch
		}
		// A partially remapped gidx is fine: the stale epoch forces a
		// full rebuild before the cache is read again.
	}
}

// ensureState (re)builds a constraint's dependency edges after a
// partition change: one fused label pass over the extension yields the
// per-group counts, from which the fully-inside groups follow. A rebuilt
// cache is never clean — the next sweep must apply the constraint.
func (m *Model) ensureState(c constraint, st *conState) {
	if st.epoch == m.epoch {
		return
	}
	m.gcScratch = m.CountByGroup(c.extension(), m.gcScratch)
	st.gidx = st.gidx[:0]
	total := 0
	for gi, g := range m.groups {
		if int(m.gcScratch[gi]) == g.Count {
			st.gidx = append(st.gidx, int32(gi))
			total += g.Count
		}
	}
	st.total = total
	if cap(st.stamps) < len(st.gidx) {
		st.stamps = make([]uint64, len(st.gidx))
	}
	st.stamps = st.stamps[:len(st.gidx)]
	st.clean = false
	st.epoch = m.epoch
}

// canSkip reports whether re-applying the constraint is provably a
// no-op: its last apply was a clean early return and none of its
// dependency groups changed since. Re-running apply on bit-identical
// inputs would recompute the bit-identical violation (≤ Tol/2) and
// early-return again, so the cached violation stands in for the call.
// The cached violation is re-checked against the *current* Tol so a
// caller tightening Model.Tol between commits invalidates stale clean
// flags instead of silently skipping now-violating constraints.
func (m *Model) canSkip(st *conState) bool {
	if m.noSkip || !st.clean || st.epoch != m.epoch || st.violation > m.Tol/2 {
		return false
	}
	for j, gi := range st.gidx {
		if m.groups[gi].version != st.stamps[j] {
			return false
		}
	}
	return true
}

// SubgroupMeanMarginal returns the marginal distribution of the subgroup
// mean statistic f_I(Y) under the current background model: its mean
// µ_I = Σ_{i∈I} µᵢ/|I| and covariance Σ_I = Σ_{i∈I} Σᵢ/|I|² (the
// covariance of a mean of |I| independent normals; see DESIGN.md §2 on
// the paper's missing 1/|I| factor). The extension need not align with
// group boundaries.
func (m *Model) SubgroupMeanMarginal(ext *bitset.Set) (mu mat.Vec, cov *mat.Dense, err error) {
	return subgroupMeanMarginal(m.groups, m.d, ext)
}

// GroupStats describes, for one parameter group intersecting an
// extension, the quantities the spread-pattern IC needs.
type GroupStats struct {
	Count     int     // points of the group inside the extension
	S         float64 // wᵀ·Σ_g·w
	MeanShift float64 // wᵀ·(center − µ_g)
}

// SpreadStats returns per-group statistics for the direction w and
// center (normally the subgroup mean ŷ_I): the projected variances
// wᵀΣw and mean shifts wᵀ(ŷ_I − µ). The extension need not align with
// group boundaries.
//
// The per-group intersection counts come from one fused trailing-zeros
// pass over ext via the dense labeling — O(n/64 + |I|) instead of one
// AND-popcount pass per group — and the projected variance is computed
// once per distinct Σ matrix (split siblings share Σ by pointer until a
// spread commit diverges them).
func (m *Model) SpreadStats(ext *bitset.Set, w, center mat.Vec) []GroupStats {
	return groupSpreadStats(m.groups, m.labels, ext, w, center)
}

// CountByGroup accumulates |ext ∩ group| for every group in one
// trailing-zeros pass over ext, writing into counts (reallocated when
// too small) and returning it. This is the fused sufficient-statistics
// kernel: cost O(n/64 + |ext|) regardless of the group count.
func (m *Model) CountByGroup(ext *bitset.Set, counts []int32) []int32 {
	return countByGroup(m.labels, len(m.groups), ext, counts)
}

// DistinctSigmaChols returns the Cholesky factorization shared by all
// groups when every group currently has an identical covariance matrix
// (true as long as only location patterns have been committed, since
// Theorem 1 leaves Σ untouched), and ok=false otherwise. The beam search
// uses this fast path to avoid a d³ factorization per candidate.
func (m *Model) DistinctSigmaChols() (chol *mat.Cholesky, ok bool, err error) {
	return distinctSigmaChols(m.groups)
}

// commitRestore holds the pointers a failed commit restores. Because
// commits fork before writing, "rollback" is just putting the old
// pointers back — the published version was never touched.
type commitRestore struct {
	groups []*Group
	labels []int32
}

// beginCommit forks the mutable state a commit writes into, leaving
// the state the published version references untouched: every group
// is copied with a fresh Mu (the coordinate descent mutates means in
// place) while member bitsets, covariances and Cholesky caches stay
// shared by pointer (the refit writes in place only covariances it
// allocated itself, never these), and the labels
// slice is copied because a split rebuilds it in place. This is the
// same work the old rollback snapshot did — COW inverts which copy
// becomes live, it does not add copies. Group order and version
// counters are preserved, so conState dependency caches and stamps
// remain valid across the fork and the incremental descent skips
// exactly what it would have skipped before.
func (m *Model) beginCommit() commitRestore {
	r := commitRestore{groups: m.groups, labels: m.labels}
	fresh := make([]*Group, len(m.groups))
	for i, g := range m.groups {
		fresh[i] = g.derive(g.Members, g.Count, g.Mu.Clone())
	}
	m.groups = fresh
	m.labels = append([]int32(nil), m.labels...)
	return r
}

// rollback restores the pre-commit pointers and drops the just-added
// constraint. The restored groups are the published version's objects
// while conState caches may have been remapped to the forked
// partition, so the epoch advances to invalidate every index-based
// cache.
func (m *Model) rollback(r commitRestore) {
	m.groups = r.groups
	m.labels = r.labels
	m.cons = m.cons[:len(m.cons)-1]
	if len(m.conState) > len(m.cons) {
		m.conState = m.conState[:len(m.cons)]
	}
	m.epoch++
}

// CommitLocation assimilates a location pattern: the user has been told
// that the subgroup with the given extension has target mean yhat. The
// model is updated per Theorem 1 and then coordinate descent re-enforces
// every stored constraint. Commits are transactional: on error the
// model is left exactly as it was. The update is built copy-on-write
// and published atomically, so snapshots taken before or during the
// commit keep reading the previous version.
func (m *Model) CommitLocation(ext *bitset.Set, yhat mat.Vec) error {
	if ext.Count() == 0 {
		return ErrNoPoints
	}
	if len(yhat) != m.d {
		return fmt.Errorf("background: location target has dim %d, want %d", len(yhat), m.d)
	}
	restore := m.beginCommit()
	m.split(ext)
	m.cons = append(m.cons, &locationConstraint{ext: ext.Clone(), target: yhat.Clone()})
	if err := m.refit(); err != nil {
		m.rollback(restore)
		return err
	}
	m.publish()
	return nil
}

// CommitSpread assimilates a spread pattern: the subgroup with the given
// extension has variance value along unit direction w, measured around
// center (its mean, which must already have been committed as a location
// pattern — the paper only ever shows spread patterns after location
// patterns). The model is updated per Theorem 2 and coordinate descent
// re-enforces every stored constraint.
func (m *Model) CommitSpread(ext *bitset.Set, w mat.Vec, center mat.Vec, value float64) error {
	if ext.Count() == 0 {
		return ErrNoPoints
	}
	if len(w) != m.d || len(center) != m.d {
		return fmt.Errorf("background: spread direction/center has wrong dim")
	}
	if value <= 0 {
		return fmt.Errorf("background: spread value must be positive, got %v", value)
	}
	nrm := w.Norm()
	if math.Abs(nrm-1) > 1e-8 {
		return fmt.Errorf("background: w must be a unit vector (norm %v)", nrm)
	}
	restore := m.beginCommit()
	m.split(ext)
	m.cons = append(m.cons, &spreadConstraint{
		ext: ext.Clone(), w: w.Clone(), center: center.Clone(), value: value,
	})
	if err := m.refit(); err != nil {
		m.rollback(restore)
		return err
	}
	m.publish()
	return nil
}

// refit runs the coordinate descent: cyclic I-projections onto each
// constraint until every expectation holds within Tol. Constraints whose
// dependency groups are unchanged since their last clean check are
// skipped — provably the same float trajectory as the full cyclic
// descent, at a fraction of the cost when committed extensions interact
// sparsely (the common regime: the paper commits patterns with limited
// overlap).
func (m *Model) refit() error {
	clear(m.scratch.born)
	defer clear(m.scratch.born) // a parked model pins no dead matrices
	m.LastSweeps = 0
	for len(m.conState) < len(m.cons) {
		m.conState = append(m.conState, conState{})
	}
	m.conState = m.conState[:len(m.cons)]
	checkDeadline := !m.Deadline.IsZero()
	for sweep := 0; sweep < m.MaxSweeps; sweep++ {
		if checkDeadline && time.Now().After(m.Deadline) {
			return fmt.Errorf("%w after %d sweeps", ErrDeadline, sweep)
		}
		m.LastSweeps = sweep + 1
		var worst float64
		for ci, c := range m.cons {
			st := &m.conState[ci]
			m.ensureState(c, st)
			v := st.violation
			if !m.canSkip(st) {
				var err error
				v, err = c.apply(m, st)
				if err != nil {
					return err
				}
			}
			if v > worst {
				worst = v
			}
		}
		if worst <= m.Tol {
			return nil
		}
	}
	return fmt.Errorf("%w: coordinate descent did not converge in %d sweeps", ErrInfeasible, m.MaxSweeps)
}

// apply implements Theorem 1. With Σ̄_I = Σ_{i∈I} Σᵢ/|I| and
// µ̄_I = Σ_{i∈I} µᵢ/|I|, the I-projection sets
//
//	µᵢ ← µᵢ + Σᵢ·λ,  λ = Σ̄_I⁻¹ (ŷ_I − µ̄_I)
//
// for i ∈ I and leaves all covariances untouched.
//
// The violation check is hoisted ahead of every Σ-derived quantity: the
// satisfied path touches only the group means (per-model scratch, zero
// allocations). When all inside groups share one Σ by pointer — the
// common regime, since split never copies and Theorem 1 never diverges
// covariances — Σ̄_I = Σ exactly, so the update reuses the group's
// cached Cholesky factorization instead of accumulating Σ̄_I and
// factorizing it from scratch, and computes Σ·λ once instead of once
// per group.
func (c *locationConstraint) apply(m *Model, st *conState) (float64, error) {
	total := st.total
	if total == 0 {
		return 0, ErrNoPoints
	}
	sc := &m.scratch
	d := m.d
	groups := m.groups
	muBar := sc.vecZ(&sc.muBar, d)
	sig0 := groups[st.gidx[0]].Sigma
	shared := true
	ft := float64(total)
	for _, gi := range st.gidx {
		g := groups[gi]
		muBar.AddScaled(float64(g.Count)/ft, g.Mu)
		if g.Sigma != sig0 {
			shared = false
		}
	}
	resid := sc.vec(&sc.resid, d)
	var residMax, targetMax float64
	for j, t := range c.target {
		r := t - muBar[j]
		resid[j] = r
		if a := math.Abs(r); a > residMax {
			residMax = a
		}
		if a := math.Abs(t); a > targetMax {
			targetMax = a
		}
	}
	violation := residMax / (1 + targetMax)
	if violation <= m.Tol/2 {
		st.record(m, violation, true)
		return violation, nil
	}

	if shared {
		chol, err := groups[st.gidx[0]].Chol()
		if err != nil {
			return 0, fmt.Errorf("background: location update: %w", err)
		}
		lambda := chol.SolveInto(sc.vec(&sc.lambda, d), resid)
		sigLam := sig0.MulVecInto(sc.vec(&sc.sigLam, d), lambda)
		for _, gi := range st.gidx {
			g := groups[gi]
			g.Mu.AddScaled(1, sigLam)
			g.version++
		}
		st.record(m, violation, false)
		return violation, nil
	}

	if sc.sigmaBar == nil || sc.sigmaBar.R != d {
		sc.sigmaBar = mat.NewDense(d, d)
	}
	sigmaBar := sc.sigmaBar
	for i := range sigmaBar.Data {
		sigmaBar.Data[i] = 0
	}
	for _, gi := range st.gidx {
		g := groups[gi]
		sigmaBar.AddScaled(float64(g.Count)/ft, g.Sigma)
	}
	if err := sc.chol.Factor(sigmaBar); err != nil {
		return 0, fmt.Errorf("background: location update: %w", err)
	}
	lambda := sc.chol.SolveInto(sc.vec(&sc.lambda, d), resid)
	// Σ·λ once per distinct matrix: split siblings (and rolled-back
	// snapshots) share Σ by pointer, so consecutive distinct pointers
	// are rare and a pointer-keyed map indexes the flat scratch.
	if sc.sigIdx == nil {
		sc.sigIdx = make(map[*mat.Dense]int32)
	} else {
		clear(sc.sigIdx)
	}
	nsig := 0
	for _, gi := range st.gidx {
		g := groups[gi]
		si, ok := sc.sigIdx[g.Sigma]
		if !ok {
			si = int32(nsig)
			nsig++
			if cap(sc.sigLam) < nsig*d {
				grown := make(mat.Vec, 2*nsig*d)
				copy(grown, sc.sigLam) // keep the Σ·λ slots already filled
				sc.sigLam = grown
			}
			sc.sigLam = sc.sigLam[:cap(sc.sigLam)]
			g.Sigma.MulVecInto(sc.sigLam[int(si)*d:(int(si)+1)*d], lambda)
			sc.sigIdx[g.Sigma] = si
		}
		g.Mu.AddScaled(1, sc.sigLam[int(si)*d:(int(si)+1)*d])
		g.version++
	}
	st.record(m, violation, false)
	return violation, nil
}

// apply implements Theorem 2. With s_g = wᵀΣ_g w and b_g = wᵀ(ŷ_I−µ_g),
// the multiplier λ is the unique root of Eq. 12,
//
//	Σ_g c_g [ s_g/(1+λs_g) + b_g²/(1+λs_g)² ] = |I|·v̂ ,
//
// and each inside group is updated by Eqs. 10–11 (a Sherman–Morrison
// rank-1 precision update).
//
// The first pass computes only the scalars the violation needs — the
// projected variance wᵀΣw once per distinct Σ (found via a
// pointer-keyed index, not a linear scan) and the mean shifts — from
// per-model scratch, so the satisfied path allocates nothing. The Σ·w
// vectors and updated matrices are built only when the constraint
// actually updates, and a matrix the running refit already allocated is
// updated in place, so a multi-sweep refit copies each distinct Σ at
// most once per change of its holder set.
func (c *spreadConstraint) apply(m *Model, st *conState) (float64, error) {
	total := st.total
	if total == 0 {
		return 0, ErrNoPoints
	}
	sc := &m.scratch
	d := m.d
	if sc.sigIdx == nil {
		sc.sigIdx = make(map[*mat.Dense]int32)
	} else {
		clear(sc.sigIdx)
	}
	sigs := sc.sigs[:0]
	stats := sc.stats[:0]
	maxS := 0.0
	var lhs0 float64
	for _, gi := range st.gidx {
		g := m.groups[gi]
		si, ok := sc.sigIdx[g.Sigma]
		if !ok {
			s := g.Sigma.QuadForm(c.w)
			if s <= 0 {
				sc.sigs, sc.stats = sigs, stats
				return 0, fmt.Errorf("background: non-positive projected variance %v", s)
			}
			si = int32(len(sigs))
			sigs = append(sigs, sigStat{sigma: g.Sigma, s: s})
			sc.sigIdx[g.Sigma] = si
			if s > maxS {
				maxS = s
			}
		}
		sigs[si].inside++
		var b float64
		for j, wj := range c.w {
			b += wj * (c.center[j] - g.Mu[j])
		}
		cnt := float64(g.Count)
		stats = append(stats, gstat{gi: gi, sig: si, s: sigs[si].s, b: b, count: cnt})
		lhs0 += cnt * (sigs[si].s + b*b)
	}
	sc.sigs, sc.stats = sigs, stats
	target := float64(total) * c.value
	violation := math.Abs(lhs0-target) / (float64(total) * (1 + c.value))
	if violation <= m.Tol/2 {
		st.record(m, violation, true)
		return violation, nil
	}

	// Mutating path: materialize Σ·w per distinct matrix (flat scratch,
	// d-strided) before solving for the multiplier.
	if cap(sc.sigW) < len(sigs)*d {
		sc.sigW = make(mat.Vec, len(sigs)*d)
	}
	sc.sigW = sc.sigW[:len(sigs)*d]
	for i := range sigs {
		sw := sc.sigW[i*d : (i+1)*d]
		sigs[i].sigma.MulVecInto(sw, c.w)
		sigs[i].sigmaW = sw
	}
	lhs := func(lambda float64) float64 {
		var sum float64
		for _, st := range stats {
			den := 1 + lambda*st.s
			sum += st.count * (st.s/den + st.b*st.b/(den*den))
		}
		return sum
	}

	// Bracket the root: lhs is strictly decreasing on (−1/maxS, ∞),
	// diverges to +∞ at the left end and decays to 0 at +∞.
	lo := -1/maxS + 1e-12/maxS
	for lhs(lo) < target { // squeeze toward the pole until lhs exceeds target
		lo = -1/maxS + (lo+1/maxS)/16
		if lo <= -1/maxS {
			return 0, fmt.Errorf("%w: cannot bracket spread multiplier", ErrInfeasible)
		}
	}
	hi := math.Max(1.0, -2*lo)
	for lhs(hi) > target {
		hi *= 2
		if hi > 1e18 {
			return 0, fmt.Errorf("%w: spread multiplier diverged", ErrInfeasible)
		}
	}
	// Bisection to machine-level tolerance.
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if lhs(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-15*(1+math.Abs(hi)) {
			break
		}
	}
	lambda := (lo + hi) / 2

	// Eq. 11 per distinct matrix: the update Σ ← Σ − λ·(Σw)(Σw)ᵀ/(1+λs)
	// depends only on Σ and w, so groups sharing a matrix get one shared
	// result. A matrix this refit allocated whose holders are all inside
	// groups is rewritten in place: nothing else can observe it. Any
	// other matrix may be reachable from a published version, a clone,
	// a fork source or an outside split sibling, so it is replaced by an
	// updated copy, which is born to this refit. Either way the groups
	// end up sharing matrices exactly as the copy-only update would, with
	// bit-identical values.
	if sc.born == nil {
		sc.born = make(map[*mat.Dense]bornSigma)
	}
	for i := range sigs {
		sg := &sigs[i]
		den := 1 + lambda*sg.s
		b, isBorn := sc.born[sg.sigma]
		inPlace := isBorn && b.holders == sg.inside && !m.cloneSpread
		next, chol := sg.sigma, b.chol
		if !inPlace {
			next, chol = sg.sigma.Clone(), new(mat.Cholesky)
		}
		next.AddOuterScaled(-lambda/den, sg.sigmaW, sg.sigmaW)
		next.Symmetrize()
		// Theorem 2 preserves positive definiteness in exact arithmetic
		// (1+λs > 0); extreme squeezes can still underflow numerically,
		// which must surface as an error (the commit rolls back), not as
		// a silently broken model.
		if err := chol.Factor(next); err != nil {
			return 0, fmt.Errorf("%w: spread update made a covariance numerically singular: %w", ErrInfeasible, err)
		}
		if !inPlace {
			if isBorn {
				b.holders -= sg.inside
				sc.born[sg.sigma] = b
			}
			sc.born[next] = bornSigma{holders: sg.inside, chol: chol}
		}
		sg.next, sg.chol = next, chol
	}
	for _, gs := range stats {
		den := 1 + lambda*gs.s
		g := m.groups[gs.gi]
		// Eq. 10: µ ← µ + λ·wᵀ(ŷ_I−µ)·Σw/(1+λs).
		g.Mu.AddScaled(lambda*gs.b/den, sigs[gs.sig].sigmaW)
		g.Sigma = sigs[gs.sig].next
		g.chol.Store(sigs[gs.sig].chol)
		g.version++
	}
	st.record(m, violation, false)
	return violation, nil
}

// PointMean returns µᵢ for point i (for visualization/tests).
func (m *Model) PointMean(i int) mat.Vec {
	g := m.GroupOf(i)
	if g == nil {
		return nil
	}
	return g.Mu.Clone()
}

// PointCov returns Σᵢ for point i (for visualization/tests).
func (m *Model) PointCov(i int) *mat.Dense {
	g := m.GroupOf(i)
	if g == nil {
		return nil
	}
	return g.Sigma.Clone()
}

// ExpectedSpread returns E[g_I^w(Y)] under the current model for the
// given extension, direction and center:
// (1/|I|) Σ_{i∈I} [ wᵀΣᵢw + (wᵀ(µᵢ − center))² ].
func (m *Model) ExpectedSpread(ext *bitset.Set, w, center mat.Vec) (float64, error) {
	return expectedSpread(m.groups, ext, w, center)
}
