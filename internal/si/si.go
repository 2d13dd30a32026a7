// Package si implements the Subjective Interestingness measure of §II-C
// of the paper: SI = IC / DL, where the Information Content (IC) of a
// pattern is its negative log probability under the current background
// distribution and the Description Length (DL) models the user's effort
// to assimilate the pattern.
//
// For location patterns the subgroup mean is normal under the background
// model and the IC is available in closed form (Eq. 13, with the
// corrected 1/|I| covariance factor — see DESIGN.md §2). For spread
// patterns the subgroup variance along w is a positively weighted sum of
// χ²₁ variables; its density is approximated by the three-moment affine
// chi-squared fit of Zhang (2005) (Eqs. 15–19, with the corrected log α
// Jacobian term).
package si

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/stats"
)

// Params hold the description length coefficients: DL = γ·|C| + η for a
// location pattern with |C| conditions, plus 1 for a spread pattern
// (it has one extra term, the direction w).
type Params struct {
	Gamma float64
	Eta   float64
}

// Default returns the paper's stated defaults (γ=0.1, η=1). Note that
// Table I of the paper is reproducible only with γ=0.5 (see DESIGN.md
// §2); the Table I experiment overrides Gamma accordingly.
func Default() Params { return Params{Gamma: 0.1, Eta: 1} }

// Bounds on the description length coefficients that Validate
// enforces, so that SI = IC/DL stays a finite number: a γ or η of
// 1e308 makes a pattern's DL overflow to +Inf, and a DL near zero (γ+η
// is the DL of a one-condition location pattern) makes SI overflow.
// The paper's (0.1, 1) and Table I's (0.5, 1) are well inside.
const (
	maxCoef = 1e6  // γ ≤ maxCoef and η ≤ maxCoef
	minDL   = 1e-6 // γ+η ≥ minDL
)

// Validate reports whether the coefficients describe a usable
// description length: γ and η in [0, 1e6], and γ+η at least 1e-6. A
// negative γ or η makes DL zero or negative (SI infinite or
// sign-flipped), and a negative γ also makes DL shrink as conditions
// are added, which breaks the subtree bound of exact search: that
// bound divides by the DL of the shallowest refinement.
func (p Params) Validate() error {
	ok := func(v float64) bool { return v >= 0 && v <= maxCoef }
	if !ok(p.Gamma) || !ok(p.Eta) {
		return fmt.Errorf("si: gamma and eta must be in [0, %g], got gamma=%g eta=%g", float64(maxCoef), p.Gamma, p.Eta)
	}
	if p.Gamma+p.Eta < minDL {
		return fmt.Errorf("si: gamma+eta must be at least %g, got gamma=%g eta=%g", minDL, p.Gamma, p.Eta)
	}
	return nil
}

// DL returns the description length of a pattern with numConds
// conditions; spread patterns pay one extra unit.
func (p Params) DL(numConds int, spread bool) float64 {
	dl := p.Gamma*float64(numConds) + p.Eta
	if spread {
		dl++
	}
	return dl
}

// ErrDegenerate is returned when the background marginal needed for an
// IC is numerically singular.
var ErrDegenerate = errors.New("si: degenerate background marginal")

// LocationIC computes the IC of a location pattern (Eq. 13): the
// negative log density of the observed subgroup mean yhat under the
// background marginal of f_I(Y), which is N(µ_I, Σ_I) with
// µ_I = Σ_{i∈I}µᵢ/|I| and Σ_I = Σ_{i∈I}Σᵢ/|I|².
func LocationIC(m background.Reader, ext *bitset.Set, yhat mat.Vec) (float64, error) {
	muI, covI, err := m.SubgroupMeanMarginal(ext)
	if err != nil {
		return 0, err
	}
	return gaussianNegLogDensity(yhat, muI, covI)
}

// LocationSI computes SI = IC/DL for a location pattern with numConds
// conditions in its intention.
func LocationSI(m background.Reader, ext *bitset.Set, yhat mat.Vec, numConds int, p Params) (si, ic float64, err error) {
	ic, err = LocationIC(m, ext, yhat)
	if err != nil {
		return 0, 0, err
	}
	return ic / p.DL(numConds, false), ic, nil
}

func gaussianNegLogDensity(x, mu mat.Vec, cov *mat.Dense) (float64, error) {
	chol, err := mat.NewCholesky(cov)
	if err != nil {
		return 0, ErrDegenerate
	}
	d := len(mu)
	diff := x.Sub(mu)
	mahal := chol.MahalanobisSq(diff, diff)
	return 0.5 * (float64(d)*math.Log(2*math.Pi) + chol.LogDet() + mahal), nil
}

// SpreadMoments summarises the three-moment chi-squared approximation:
// g ≈ α·χ²_m + β (Eq. 18).
type SpreadMoments struct {
	Alpha, Beta, M float64
	A1, A2, A3     float64 // moment sums Σᵢ aᵢᵏ, exposed for the optimizer
}

// MomentsFromSums builds the three-moment fit directly from the moment
// sums A₁..A₃ — the form the spread optimizer uses, whose evaluation
// engine maintains the sums itself (from precomputed quadratic forms)
// rather than from per-group counts and projected variances.
func MomentsFromSums(a1, a2, a3 float64) SpreadMoments {
	return SpreadMoments{
		Alpha: a3 / a2,
		Beta:  a1 - a2*a2/a3,
		M:     a2 * a2 * a2 / (a3 * a3),
		A1:    a1, A2: a2, A3: a3,
	}
}

// minU floors the standardized statistic (ĝ−β)/α so the IC stays finite
// when the observation falls (just) outside the approximating support —
// a known artifact of the three-moment fit that the paper does not
// discuss; clamping preserves the ranking ("impossibly small variance"
// scores as extremely, but finitely, surprising).
const minU = 1e-12

// SpreadICFromMoments evaluates the spread IC (corrected Eq. 19) for an
// observed variance ghat:
//
//	IC = (m/2)·ln2 + lnΓ(m/2) + ln α − (m/2−1)·ln u + u/2,  u = (ĝ−β)/α.
func SpreadICFromMoments(sm SpreadMoments, ghat float64) float64 {
	u := (ghat - sm.Beta) / sm.Alpha
	if u < minU {
		u = minU
	}
	lg, _ := math.Lgamma(sm.M / 2)
	return sm.M/2*math.Ln2 + lg + math.Log(sm.Alpha) -
		(sm.M/2-1)*math.Log(u) + u/2
}

// SpreadICGradientTerms returns the IC and its partial derivatives with
// respect to the observed variance ĝ and the moment sums A1, A2, A3.
// The spread optimizer chains these with ∇_w ĝ and ∇_w Aₖ to obtain the
// analytic Riemannian gradient (the derivative the paper computes but
// omits "due to lack of space").
func SpreadICGradientTerms(sm SpreadMoments, ghat float64) (ic, dG, dA1, dA2, dA3 float64) {
	alpha, beta, m := sm.Alpha, sm.Beta, sm.M
	u := (ghat - beta) / alpha
	clamped := false
	if u < minU {
		u = minU
		clamped = true
	}
	lg, _ := math.Lgamma(m / 2)
	ic = m/2*math.Ln2 + lg + math.Log(alpha) - (m/2-1)*math.Log(u) + u/2

	// Partials of IC w.r.t. (ĝ, α, β, m).
	var dGhat, dAlpha, dBeta, dM float64
	if clamped {
		// In the clamped region the density is flat in ĝ and β; keep only
		// the α and m sensitivities that remain well-defined.
		dGhat = 0
		dBeta = 0
	} else {
		dGhat = 1/(2*alpha) - (m/2-1)/(ghat-beta)
		dBeta = -dGhat
	}
	dAlpha = (m/2)/alpha - u/(2*alpha)
	dM = math.Ln2/2 + stats.Digamma(m/2)/2 - math.Log(u)/2

	// Chain to the moment sums.
	a2, a3 := sm.A2, sm.A3
	dAlphaA2 := -a3 / (a2 * a2)
	dAlphaA3 := 1 / a2
	dBetaA1 := 1.0
	dBetaA2 := -2 * a2 / a3
	dBetaA3 := a2 * a2 / (a3 * a3)
	dMA2 := 3 * a2 * a2 / (a3 * a3)
	dMA3 := -2 * a2 * a2 * a2 / (a3 * a3 * a3)

	dG = dGhat
	dA1 = dBeta * dBetaA1
	dA2 = dAlpha*dAlphaA2 + dBeta*dBetaA2 + dM*dMA2
	dA3 = dAlpha*dAlphaA3 + dBeta*dBetaA3 + dM*dMA3
	return ic, dG, dA1, dA2, dA3
}

// LocationScorer scores candidate subgroup extensions during beam
// search. It snapshots the model's groups and dense group labeling once
// and scores each candidate with one fused trailing-zeros pass over the
// extension that accumulates the per-group counts *and* the target sum
// simultaneously — O(n/64 + |I|) regardless of how many groups the
// committed patterns have split the model into, where the former
// per-group AND-popcount walk was O(#groups · n/64). A shared-Σ fast
// path (valid whenever only location patterns have been committed,
// which Theorem 1 guarantees keeps all covariances equal) avoids a d³
// factorization per candidate.
//
// The scorer itself only mints workers and is safe for concurrent use;
// the engine calls NewWorker for a per-goroutine context whose
// steady-state scoring path performs zero heap allocations.
type LocationScorer struct {
	Y *mat.Dense
	P Params

	d      int
	groups []*background.Group
	labels []int32
	// mus is the group means flattened into one contiguous G×d array
	// (mus[g*d:(g+1)*d] is group g's µ): the µ_I accumulation loop runs
	// over it cache-linearly with no per-group pointer chase.
	mus mat.Vec

	shared *mat.Cholesky // non-nil → all groups share Sigma
	// icBase is d·log 2π + log|Σ| of the shared matrix: the part of the
	// location IC that depends on neither the subgroup nor its size.
	icBase float64

	// Bound-pruning state (see NewBoundWorker), built by the first
	// Prepare and shared read-only by all bound workers: per-point
	// residual magnitudes against each point's own background group mean.
	boundOnce   sync.Once
	boundVals   []float64
	boundInvVar float64 // d == 1 only: 1/Σ, the shared scalar precision
}

// Interface conformance with the evaluation engine.
var (
	_ engine.Scorer = (*LocationScorer)(nil)
	_ engine.Worker = (*LocationWorker)(nil)
)

// NewLocationScorer prepares a scorer against the given model state —
// typically a published *background.ModelVersion, so scoring proceeds
// concurrently with commits. The scorer must be rebuilt to observe a
// newer version. Groups and labels are shared, not copied: commits
// never mutate published state in place (copy-on-write), so the
// references stay valid and immutable for the scorer's lifetime.
func NewLocationScorer(m background.Reader, y *mat.Dense, p Params) (*LocationScorer, error) {
	s := &LocationScorer{
		Y: y, P: p, d: m.D(),
		groups: m.Groups(),
		labels: m.Labels(),
	}
	s.mus = make(mat.Vec, len(s.groups)*s.d)
	for gi, g := range s.groups {
		copy(s.mus[gi*s.d:(gi+1)*s.d], g.Mu)
	}
	chol, ok, err := m.DistinctSigmaChols()
	if err != nil {
		return nil, err
	}
	if ok {
		s.shared = chol
		s.icBase = float64(s.d)*math.Log(2*math.Pi) + chol.LogDet()
	}
	return s, nil
}

// NewWorker implements engine.Scorer.
func (s *LocationScorer) NewWorker() engine.Worker { return s.newWorker() }

// LocationWorker is a single-goroutine scoring context: all
// intermediates (group counts, ŷ, µ_I, the solve and — on the general
// path — the covariance accumulator and its factorization) live in
// worker-owned scratch, so steady-state scoring allocates nothing.
type LocationWorker struct {
	s      *LocationScorer
	counts []int32
	// touched marks the groups the current extension intersects (bit g
	// set ⟺ counts[g] > 0), so finish visits only those groups — in
	// ascending order, for free — instead of scanning all #groups count
	// slots per candidate.
	touched []uint64
	yhat    mat.Vec
	muI     mat.Vec
	diff    mat.Vec
	sol     mat.Vec
	cov     *mat.Dense    // general path only
	chol    *mat.Cholesky // general path only; refactorized in place
}

func (s *LocationScorer) newWorker() *LocationWorker {
	w := &LocationWorker{
		s:       s,
		counts:  make([]int32, len(s.groups)),
		touched: make([]uint64, (len(s.groups)+63)/64),
		yhat:    make(mat.Vec, s.d),
		muI:     make(mat.Vec, s.d),
		diff:    make(mat.Vec, s.d),
		sol:     make(mat.Vec, s.d),
	}
	if s.shared == nil {
		w.cov = mat.NewDense(s.d, s.d)
		w.chol = &mat.Cholesky{}
	}
	return w
}

// Score implements engine.Worker: the fused single-pass scoring kernel.
// It returns the candidate's SI, IC and subgroup mean; ok=false marks
// candidates that cannot be scored (empty extension or degenerate
// marginal). The returned mean is worker scratch, valid until the next
// call.
func (w *LocationWorker) Score(ext *bitset.Set, numConds int) (si, ic float64, yhat mat.Vec, ok bool) {
	cnt := w.accumulate(ext)
	if cnt == 0 {
		return 0, 0, nil, false
	}
	return w.finish(cnt, numConds)
}

// ScoreStats implements engine.Worker: ysum is ext's target
// sum, so only the group counts come from ext — the popcount or label
// pass Score would pick, with no target row read. Results are
// bit-identical to Score because the counts are the same integers and
// ysum accumulated in the same member order the fused pass uses.
func (w *LocationWorker) ScoreStats(ext *bitset.Set, ysum mat.Vec, size, numConds int) (si, ic float64, yhat mat.Vec, ok bool) {
	if size == 0 {
		return 0, 0, nil, false
	}
	switch {
	case len(w.s.groups) == 1:
		w.counts[0] = int32(size)
		w.touched[0] = 1
	case !w.popcountGroups(ext, size):
		w.labelGroups(ext)
	}
	copy(w.yhat, ysum)
	return w.finish(size, numConds)
}

// accumulate runs the fused pass: one trailing-zeros walk over ext
// bumping the label-indexed group counts and summing target rows into
// w.yhat, returning |ext|. The specializations keep the per-bit work
// minimal for the two axes that matter: a fresh model has a single
// group (counts collapse to the popcount) and single-target datasets
// collapse the row loop to one scalar add. For few-group models a
// second axis applies: per-group counts come from AND-popcounts of the
// group membership bitsets (#groups·n/64 word operations), which beats
// carrying the label lookup, count bump and touched-bitmap update
// through every member of the walk — the walk then only sums target
// rows. The counts are the same integers either way, so finish sees
// identical inputs and the scored floats are unchanged.
func (w *LocationWorker) accumulate(ext *bitset.Set) int {
	// w.counts and w.touched are all-zero here: finish clears every slot
	// it visited, so no O(#groups) memset is needed per candidate.
	s := w.s
	d := s.d
	single := len(s.groups) == 1
	// plain: no per-member label bookkeeping needed during the walk —
	// either there is one group, or the counts were already computed by
	// the AND-popcount pass below.
	plain := single
	if !single {
		cnt := ext.Count()
		if cnt == 0 {
			return 0
		}
		plain = w.popcountGroups(ext, cnt)
	}
	// Each walk variant is its own small function so the hot loops get
	// clean register allocation instead of sharing one sprawling frame.
	var cnt int
	switch {
	case d == 1 && plain:
		cnt = w.sumD1Plain(ext)
	case d == 1:
		cnt = w.sumD1Labeled(ext)
	case plain && d <= 5:
		cnt = w.sumRowsSmallD(ext)
	case plain:
		cnt = w.sumRowsPlain(ext)
	default:
		cnt = w.sumRowsLabeled(ext)
	}
	if single && cnt > 0 {
		w.counts[0] = int32(cnt)
		w.touched[0] = 1
	}
	return cnt
}

// popcountGroups fills the group counts of ext, which has cnt members,
// from AND-popcounts of the group membership bitsets when that
// (#groups·n/64 word operations) beats per-member label bookkeeping, and
// reports whether it did.
func (w *LocationWorker) popcountGroups(ext *bitset.Set, cnt int) bool {
	groups := w.s.groups
	if len(groups)*len(ext.Words()) >= cnt*4 {
		return false
	}
	for gi, g := range groups {
		if c := g.Members.IntersectCount(ext); c != 0 {
			w.counts[gi] = int32(c)
			w.touched[gi>>6] |= 1 << (uint(gi) & 63)
		}
	}
	return true
}

// labelGroups counts the members of ext per group through the labeling,
// reading no target row.
func (w *LocationWorker) labelGroups(ext *bitset.Set) {
	labels := w.s.labels
	counts := w.counts
	touched := w.touched
	for wi, word := range ext.Words() {
		base := wi * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			lab := labels[base+b]
			counts[lab]++
			touched[lab>>6] |= 1 << (uint(lab) & 63)
		}
	}
}

// sumD1Plain sums the single target column over ext into w.yhat.
func (w *LocationWorker) sumD1Plain(ext *bitset.Set) int {
	data := w.s.Y.Data
	var sum float64
	cnt := 0
	for wi, word := range ext.Words() {
		base := wi * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			sum += data[base+b]
			cnt++
		}
	}
	w.yhat[0] = sum
	return cnt
}

// sumD1Labeled is sumD1Plain fused with the per-member group-count
// bookkeeping (label lookup, count bump, touched bitmap).
func (w *LocationWorker) sumD1Labeled(ext *bitset.Set) int {
	data := w.s.Y.Data
	labels := w.s.labels
	counts := w.counts
	touched := w.touched
	var sum float64
	cnt := 0
	for wi, word := range ext.Words() {
		base := wi * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			i := base + b
			lab := labels[i]
			counts[lab]++
			touched[lab>>6] |= 1 << (uint(lab) & 63)
			sum += data[i]
			cnt++
		}
	}
	w.yhat[0] = sum
	return cnt
}

// sumRowsPlain sums the target rows of ext into w.yhat, no group
// bookkeeping.
func (w *LocationWorker) sumRowsPlain(ext *bitset.Set) int {
	data := w.s.Y.Data
	d := w.s.d
	yhat := w.yhat
	for j := range yhat {
		yhat[j] = 0
	}
	cnt := 0
	for wi, word := range ext.Words() {
		base := wi * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			i := base + b
			row := data[i*d : i*d+d]
			for j, v := range row {
				yhat[j] += v
			}
			cnt++
		}
	}
	return cnt
}

// sumRowsLabeled is sumRowsPlain fused with the per-member group-count
// bookkeeping — the many-groups path where AND-popcounts would cost
// more than the labels.
func (w *LocationWorker) sumRowsLabeled(ext *bitset.Set) int {
	data := w.s.Y.Data
	labels := w.s.labels
	counts := w.counts
	touched := w.touched
	d := w.s.d
	yhat := w.yhat
	for j := range yhat {
		yhat[j] = 0
	}
	cnt := 0
	for wi, word := range ext.Words() {
		base := wi * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			i := base + b
			lab := labels[i]
			counts[lab]++
			touched[lab>>6] |= 1 << (uint(lab) & 63)
			row := data[i*d : i*d+d]
			for j, v := range row {
				yhat[j] += v
			}
			cnt++
		}
	}
	return cnt
}

// sumRowsSmallD sums the target rows of ext into w.yhat for 2 ≤ d ≤ 5
// with fixed-width unrolled accumulators. Each yhat component receives
// exactly the adds of the generic row loop in the same ascending member
// order, so the result is bit-identical.
func (w *LocationWorker) sumRowsSmallD(ext *bitset.Set) int {
	data := w.s.Y.Data
	d := w.s.d
	yhat := w.yhat
	cnt := 0
	var s0, s1, s2, s3, s4 float64
	switch d {
	case 2:
		for wi, word := range ext.Words() {
			base := wi * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				row := data[(base+b)*2:]
				s0 += row[0]
				s1 += row[1]
				cnt++
			}
		}
	case 3:
		for wi, word := range ext.Words() {
			base := wi * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				row := data[(base+b)*3:]
				s0 += row[0]
				s1 += row[1]
				s2 += row[2]
				cnt++
			}
		}
	case 4:
		for wi, word := range ext.Words() {
			base := wi * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				row := data[(base+b)*4:]
				s0 += row[0]
				s1 += row[1]
				s2 += row[2]
				s3 += row[3]
				cnt++
			}
		}
	case 5:
		for wi, word := range ext.Words() {
			base := wi * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				row := data[(base+b)*5:]
				s0 += row[0]
				s1 += row[1]
				s2 += row[2]
				s3 += row[3]
				s4 += row[4]
				cnt++
			}
		}
	default:
		panic("si: sumRowsSmallD out of range")
	}
	yhat[0] = s0
	yhat[1] = s1
	if d > 2 {
		yhat[2] = s2
	}
	if d > 3 {
		yhat[3] = s3
	}
	if d > 4 {
		yhat[4] = s4
	}
	return cnt
}

// finish turns accumulated sufficient statistics (w.yhat holds the raw
// target sum, w.counts and w.touched the group counts) into SI/IC. The
// per-group accumulation of µ_I (and Σ_I on the general path) visits
// only the groups the extension intersects, in ascending model order —
// a trailing-zeros walk over the touched bitmap — which is the exact
// float operation sequence of the naive SubgroupMeanMarginal-based
// path, so both agree bit-for-bit. Every visited count slot and bitmap
// word is cleared on the way, maintaining the worker-scratch invariant
// without a per-candidate O(#groups) memset.
func (w *LocationWorker) finish(cnt, numConds int) (si, ic float64, yhat mat.Vec, ok bool) {
	s := w.s
	d := s.d
	yhat = w.yhat
	yhat.Scale(1 / float64(cnt))

	muI := w.muI
	cov := w.cov
	mus := s.mus
	counts := w.counts
	touched := w.touched
	if cov == nil && d == 1 {
		// Shared-Σ single-target fast path: the group loop collapses to
		// one fused multiply-add over the flat mean array.
		var mu0 float64
		for wi, word := range touched {
			if word == 0 {
				continue
			}
			base := wi * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				gi := base + b
				mu0 += float64(counts[gi]) * mus[gi]
				counts[gi] = 0
			}
			touched[wi] = 0
		}
		muI[0] = mu0
	} else {
		for j := range muI {
			muI[j] = 0
		}
		if cov != nil {
			// Only the lower triangle is maintained: Cholesky.Factor is
			// documented to read nothing else, so the upper half of the
			// Σ_I accumulation (it is symmetric) would be dead work.
			for r := 0; r < d; r++ {
				zr := cov.Data[r*d : r*d+r+1]
				for j := range zr {
					zr[j] = 0
				}
			}
		}
		for wi, word := range touched {
			if word == 0 {
				continue
			}
			base := wi * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				gi := base + b
				wt := float64(counts[gi])
				counts[gi] = 0
				for j, v := range mus[gi*d : (gi+1)*d] {
					muI[j] += wt * v
				}
				if cov != nil {
					sig := s.groups[gi].Sigma.Data
					for r := 0; r < d; r++ {
						src := sig[r*d : r*d+r+1]
						dst := cov.Data[r*d : r*d+r+1]
						for c, v := range src {
							dst[c] += wt * v
						}
					}
				}
			}
			touched[wi] = 0
		}
	}
	muI.Scale(1 / float64(cnt))

	diff := w.diff
	for j := range diff {
		diff[j] = yhat[j] - muI[j]
	}
	if s.shared != nil {
		// Σ_I = Σ/|I|: log|Σ_I| = log|Σ| − d·log|I|, Mahal scales by |I|.
		mahal := float64(cnt) * s.shared.MahalanobisSq(w.sol, diff)
		ic = 0.5 * (s.icBase - float64(d)*math.Log(float64(cnt)) + mahal)
	} else {
		inv := 1 / float64(cnt*cnt)
		for r := 0; r < d; r++ {
			sr := cov.Data[r*d : r*d+r+1]
			for c := range sr {
				sr[c] *= inv
			}
		}
		if err := w.chol.Factor(cov); err != nil {
			return 0, 0, nil, false
		}
		mahal := w.chol.MahalanobisSq(w.sol, diff)
		ic = 0.5 * (float64(d)*math.Log(2*math.Pi) + w.chol.LogDet() + mahal)
	}
	return ic / s.P.DL(numConds, false), ic, yhat, true
}

// NewBoundWorker implements engine.Scorer. The bound exploits the
// shared-Σ IC form: for a subgroup c of size k,
//
//	IC = ½(d·log2π + log|Σ| − d·log k + k·δᵀΣ⁻¹δ),  δ = (1/k)·Σ_{i∈c} zᵢ,
//
// with residuals zᵢ = yᵢ − µ_{g(i)}. Everything but the Mahalanobis
// term depends only on k, so an upper bound on k·δᵀΣ⁻¹δ over all
// k-subsets of a parent extension bounds the IC — and dividing by the
// exact DL(numConds) bounds the SI.
//
//   - d = 1: k·δ²/σ² = S²/(k·σ²) with S = Σ_{i∈c} zᵢ. Over k-subsets,
//     |S| is maximized by the k largest or the k most negative parent
//     residuals — O(1) from prefix sums of the sorted residuals.
//   - d ≥ 2: ‖L⁻¹δ‖ ≤ (1/k)·Σ‖L⁻¹zᵢ‖ (triangle inequality), so with
//     rᵢ = √(zᵢᵀΣ⁻¹zᵢ) precomputed per point, k·δᵀΣ⁻¹δ ≤ R(k)²/k where
//     R(k) is the top-k residual-norm sum of the parent.
//
// The triangle inequality loosens with dimension (and the per-point
// Mahalanobis norms cost d² each to precompute), so bounds are offered
// only for d ≤ 8; without a shared Σ the IC has no such form at all.
// Both cases return nil and the evaluator scores everything.
//
// NewBoundWorker itself costs nothing per point: the residual vector
// (8n bytes and n·d² flops) is built once, on the first Prepare of any
// of the scorer's bound workers, so a search that never prepares a
// parent never pays for it.
func (s *LocationScorer) NewBoundWorker() engine.BoundWorker {
	if s.shared == nil || s.d > 8 {
		return nil
	}
	return &locationBoundWorker{s: s}
}

// residuals builds the scorer's per-point residual magnitudes once; bound
// workers on several goroutines may race to the first call.
func (s *LocationScorer) residuals() []float64 {
	s.boundOnce.Do(func() {
		n := len(s.labels)
		d := s.d
		vals := make([]float64, n)
		if d == 1 {
			for i := 0; i < n; i++ {
				vals[i] = s.Y.Data[i] - s.mus[s.labels[i]]
			}
			l0 := s.shared.L[0]
			s.boundInvVar = 1 / (l0 * l0)
		} else {
			z := make(mat.Vec, d)
			sol := make(mat.Vec, d)
			for i := 0; i < n; i++ {
				row := s.Y.Data[i*d : (i+1)*d]
				mu := s.mus[int(s.labels[i])*d:]
				for j, v := range row {
					z[j] = v - mu[j]
				}
				vals[i] = math.Sqrt(s.shared.MahalanobisSq(sol, z))
			}
		}
		s.boundVals = vals
	})
	return s.boundVals
}

// locationBoundWorker answers O(1) size-k SI bounds from the prefix sums
// of a prepared parent's sorted residuals, which live in the caller's
// scratch. Single-goroutine, engine-owned.
type locationBoundWorker struct {
	s      *LocationScorer
	prefix []float64 // prefix[i] = Σ of the i smallest parent residuals
	slack  float64   // summation-error allowance, see Prepare
}

// Prepare implements engine.BoundWorker: gathers the parent's residuals
// into *scratch after one leading zero, sorts them and turns them into
// prefix sums in place, so BoundSI answers any subset size in O(1).
// Reports false (no bound available) for a nil or empty parent.
func (w *locationBoundWorker) Prepare(parent *bitset.Set, scratch *[]float64) bool {
	if parent == nil {
		return false
	}
	resid := w.s.residuals()
	prefix := append((*scratch)[:0], 0)
	absSum := 0.0
	for wi, word := range parent.Words() {
		base := wi * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			v := resid[base+b]
			prefix = append(prefix, v)
			absSum += math.Abs(v)
		}
	}
	*scratch = prefix
	w.prefix = prefix
	m := len(prefix) - 1
	if m == 0 {
		return false
	}
	sort.Float64s(prefix[1:])
	run := 0.0
	for i, v := range prefix[1:] {
		run += v
		prefix[i+1] = run
	}
	// Any subset sum recovered from the prefix array carries at most
	// m·ε·Σ|vᵢ| of accumulated rounding; adding it keeps the extremal
	// sums admissible. (The evaluator adds its own relative inflation on
	// the SI for the remaining algebra.)
	w.slack = float64(m) * 4e-16 * absSum
	return true
}

// BoundSI implements engine.BoundWorker.
func (w *locationBoundWorker) BoundSI(size, numConds int) float64 {
	s := w.s
	prefix := w.prefix
	m := len(prefix) - 1
	k := size
	if k > m {
		k = m
	}
	mx := prefix[m] - prefix[m-k] // largest k-subset sum
	if s.d == 1 {
		// Signed residuals: the most negative k-subset sum (the k
		// smallest residuals) can have the larger magnitude.
		if low := -prefix[k]; low > mx {
			mx = low
		}
	}
	mx += w.slack
	if mx < 0 {
		mx = 0
	}
	var mahal float64
	if s.d == 1 {
		mahal = mx * mx * s.boundInvVar / float64(k)
	} else {
		mahal = mx * mx / float64(k)
	}
	ic := 0.5 * (s.icBase - float64(s.d)*math.Log(float64(k)) + mahal)
	return ic / s.P.DL(numConds, false)
}
