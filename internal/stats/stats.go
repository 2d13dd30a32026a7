// Package stats provides the descriptive statistics, probability
// distributions and special functions used throughout the subgroup
// discovery library: means and covariance matrices, percentiles,
// the normal distribution, the digamma function, Gaussian kernel
// density estimation (Fig. 1 of the paper) and empirical CDFs (Figs.
// 8c, 9b).
//
// It replaces the statistics toolbox of the MATLAB substrate used by the
// original implementation, built only on the Go standard library.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// Mean returns the arithmetic mean of xs. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population (divide-by-n) variance of xs, matching
// the paper's statistic g (Eq. 2) which divides by |I|. Returns NaN for
// empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// MeanVec returns the column-wise mean of the rows with indices idx in
// the n×d matrix y. If idx is nil, all rows are used.
func MeanVec(y *mat.Dense, idx []int) mat.Vec {
	d := y.C
	out := make(mat.Vec, d)
	if idx == nil {
		for i := 0; i < y.R; i++ {
			row := y.Row(i)
			for j, v := range row {
				out[j] += v
			}
		}
		out.Scale(1 / float64(y.R))
		return out
	}
	if len(idx) == 0 {
		for j := range out {
			out[j] = math.NaN()
		}
		return out
	}
	for _, i := range idx {
		row := y.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	out.Scale(1 / float64(len(idx)))
	return out
}

// CovMat returns the population (divide-by-n) covariance matrix of the
// rows with indices idx in y, around their own mean. If idx is nil, all
// rows are used. Only the upper triangle is accumulated (the lower is a
// mirror: the (a,b) and (b,a) products are the same multiplications in
// the same order, so nothing is lost), halving the dominant d²·n work.
// The centered row is computed once per point instead of re-subtracting
// mu inside every (a,b) product — the differences are the exact same
// floats, and each cr[b] accumulator still sees the identical products
// in the identical order, so the result is bit-for-bit unchanged.
func CovMat(y *mat.Dense, idx []int) *mat.Dense {
	d := y.C
	if idx == nil {
		if cov := covMatBinary(y); cov != nil {
			return cov
		}
	}
	mu := MeanVec(y, idx)
	cov := mat.NewDense(d, d)
	cent := make([]float64, d)
	accumulate := func(row mat.Vec) {
		for b, v := range row {
			cent[b] = v - mu[b]
		}
		for a := 0; a < d; a++ {
			da := cent[a]
			if da == 0 {
				continue
			}
			cb := cent[a:d]
			cr := cov.Data[a*d+a : (a+1)*d : (a+1)*d]
			cr = cr[:len(cb)]
			// Each cr[b] is its own accumulator, so the four-wide
			// unroll leaves every accumulator's addition order — and
			// therefore every float — unchanged.
			b := 0
			for ; b+4 <= len(cb); b += 4 {
				cr[b] += da * cb[b]
				cr[b+1] += da * cb[b+1]
				cr[b+2] += da * cb[b+2]
				cr[b+3] += da * cb[b+3]
			}
			for ; b < len(cb); b++ {
				cr[b] += da * cb[b]
			}
		}
	}
	n := 0
	if idx == nil {
		n = y.R
		for i := 0; i < y.R; i++ {
			accumulate(y.Row(i))
		}
	} else {
		n = len(idx)
		for _, i := range idx {
			accumulate(y.Row(i))
		}
	}
	if n == 0 {
		return cov
	}
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			cov.Data[b*d+a] = cov.Data[a*d+b]
		}
	}
	cov.Scale(1 / float64(n))
	return cov
}

// covMatBinary computes the full-data covariance when every entry of y
// is 0 or 1 (the presence/absence target matrices of the ecology
// datasets), or returns nil when it does not apply. For binary columns
// the cross moment Σᵢ y_ia·y_ib is the integer |ones(a) ∩ ones(b)|, so
// the d²/2 pairwise sums collapse from n multiply-adds each to a
// word-batched popcount: cov_ab = (S_ab − k_a·k_b/n)/n with
// k_a = |ones(a)|. All sums are exact integers below 2⁵³, making this
// at least as accurate as the centered accumulation it replaces.
func covMatBinary(y *mat.Dense) *mat.Dense {
	n, d := y.R, y.C
	if n == 0 || d == 0 {
		return nil
	}
	for _, v := range y.Data {
		if v != 0 && v != 1 {
			return nil
		}
	}
	cols := make([]*bitset.Set, d)
	for j := range cols {
		cols[j] = bitset.New(n)
	}
	for i := 0; i < n; i++ {
		row := y.Data[i*d : (i+1)*d]
		for j, v := range row {
			if v == 1 {
				cols[j].Add(i)
			}
		}
	}
	k := make([]float64, d)
	for j := range k {
		k[j] = float64(cols[j].Count())
	}
	cov := mat.NewDense(d, d)
	inv := 1 / float64(n)
	for a := 0; a < d; a++ {
		ka := k[a]
		for b := a; b < d; b++ {
			s := float64(cols[a].IntersectCount(cols[b]))
			c := (s - ka*k[b]*inv) * inv
			cov.Data[a*d+b] = c
			cov.Data[b*d+a] = c
		}
	}
	return cov
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics, the same convention as MATLAB's
// prctile with interpolation. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// Percentiles returns the p-th percentile of xs for every p in ps, with
// exactly the interpolation (and therefore exactly the values) of
// Percentile. Instead of sorting (or repeatedly quickselecting) it runs
// an adaptive radix selection over order-preserving integer keys: each
// round buckets the current range on its top ~10 *varying* bits (an
// OR/AND mask skips the high bits normalized columns share), scatters
// once, and resolves every requested order statistic against that same
// scatter — O(n) total with branch-free passes, where the former
// comparison selects paid a mispredicting swap-heavy partition per
// statistic. The selected values are full-sort-exact: the key mapping
// is monotone with NaNs pinned first, matching sort.Float64s order.
// xs is not modified. *scratch is the caller's key buffer: it is grown
// to at least 2·len(xs) when shorter and its contents are overwritten,
// so a caller selecting over many columns allocates it once.
func Percentiles(xs []float64, ps []float64, scratch *[]uint64) []float64 {
	out := make([]float64, len(ps))
	n := len(xs)
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	// Collect the order-statistic indices the interpolations read
	// (ascending, deduplicated — multiSelectKeys wants them sorted).
	idxs := make([]int, 0, 2*len(ps))
	for _, p := range ps {
		if p < 0 || p > 100 {
			panic(fmt.Sprintf("stats: percentile %v out of range", p))
		}
		pos := p / 100 * float64(n-1)
		idxs = append(idxs, int(math.Floor(pos)), int(math.Ceil(pos)))
	}
	sort.Ints(idxs)
	uniq := idxs[:0]
	for _, k := range idxs {
		if len(uniq) == 0 || uniq[len(uniq)-1] != k {
			uniq = append(uniq, k)
		}
	}

	if len(*scratch) < 2*n {
		*scratch = make([]uint64, 2*n)
	}
	keys := (*scratch)[:2*n]
	tmp := keys[n:]
	keys = keys[:n]
	for i, v := range xs {
		keys[i] = floatOrderKey(v)
	}
	sel := make([]uint64, len(uniq))
	ranks := append([]int(nil), uniq...) // multiSelectKeys rebases its rank slice
	multiSelectKeys(keys, tmp, ranks, sel)
	ord := func(k int) float64 {
		j := sort.SearchInts(uniq, k)
		return floatFromOrderKey(sel[j])
	}
	// Interpolate with the exact arithmetic of PercentileSorted.
	for i, p := range ps {
		if n == 1 {
			out[i] = ord(0)
			continue
		}
		pos := p / 100 * float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			out[i] = ord(lo)
			continue
		}
		frac := pos - float64(lo)
		out[i] = ord(lo)*(1-frac) + ord(hi)*frac
	}
	return out
}

// floatOrderKey maps v to a uint64 whose unsigned order matches the
// sort.Float64s order of the values: NaNs first (key 0), then ascending
// by value (negatives flip all bits, non-negatives flip the sign bit).
// The mapping is invertible on non-NaN values via floatFromOrderKey; no
// non-NaN value maps to key 0.
func floatOrderKey(v float64) uint64 {
	if v != v {
		return 0
	}
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// floatFromOrderKey inverts floatOrderKey (key 0 decodes to NaN).
func floatFromOrderKey(k uint64) float64 {
	if k == 0 {
		return math.NaN()
	}
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// multiSelectKeys resolves several order statistics of keys in one
// walk: ks lists the wanted 0-based ranks (ascending, unique) and the
// matching sel entry receives the rank's key. keys and tmp are equal-
// length scratch that is permuted/overwritten. Each round masks off the
// high bits every key shares (OR/AND over the range), buckets on the
// top ≤10 varying bits, scatters the range once, and either descends
// into the single bucket holding all remaining ranks or recurses per
// bucket — so a column costs O(n) regardless of how many statistics are
// read, and heavily tied columns (whole buckets of one value) terminate
// on the all-equal check instead of degrading.
func multiSelectKeys(keys, tmp []uint64, ks []int, sel []uint64) {
	const bucketBits = 10
	const buckets = 1 << bucketBits
	for {
		n := len(keys)
		if n <= 48 {
			// Insertion sort settles the small remainder exactly.
			for i := 1; i < n; i++ {
				v := keys[i]
				j := i
				for j > 0 && v < keys[j-1] {
					keys[j] = keys[j-1]
					j--
				}
				keys[j] = v
			}
			for i, k := range ks {
				sel[i] = keys[k]
			}
			return
		}
		orAll, andAll := uint64(0), ^uint64(0)
		for _, k := range keys {
			orAll |= k
			andAll &= k
		}
		varying := orAll ^ andAll
		if varying == 0 {
			for i := range ks {
				sel[i] = keys[0]
			}
			return
		}
		shift := bits.Len64(varying) - bucketBits
		if shift < 0 {
			shift = 0
		}
		var hist [buckets]int32
		for _, k := range keys {
			hist[(k>>uint(shift))&(buckets-1)]++
		}
		var start [buckets + 1]int32
		s := int32(0)
		for b := 0; b < buckets; b++ {
			start[b] = s
			s += hist[b]
		}
		start[buckets] = s
		pos := start
		for _, k := range keys {
			b := (k >> uint(shift)) & (buckets - 1)
			tmp[pos[b]] = k
			pos[b]++
		}
		// Group the ranks by bucket; tail-descend when one bucket holds
		// them all (the common case once ranks cluster), recurse otherwise.
		b := 0
		i := 0
		for i < len(ks) {
			for int(start[b+1]) <= ks[i] {
				b++
			}
			j := i
			for j < len(ks) && ks[j] < int(start[b+1]) {
				j++
			}
			lo, hi := start[b], start[b+1]
			for t := i; t < j; t++ {
				ks[t] -= int(lo)
			}
			if i == 0 && j == len(ks) {
				keys, tmp = tmp[lo:hi], keys[lo:hi]
				break // tail-descend with the swapped scratch
			}
			multiSelectKeys(tmp[lo:hi], keys[lo:hi], ks[i:j], sel[i:j])
			i = j
			if i == len(ks) {
				return
			}
		}
	}
}

// PercentileSorted is Percentile over already-sorted data — the form
// callers extracting several percentiles of one column use, so the
// column is copied and sorted once instead of once per percentile.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Welford accumulates a running mean and variance in a single pass.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN if empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Var returns the population variance (NaN if empty).
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.m2 / float64(w.n)
}

// NormalPDF returns the density of N(mu, sigma²) at x.
func NormalPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-z*z/2) / (sigma * math.Sqrt(2*math.Pi))
}

// NormalCDF returns P(X ≤ x) for X ~ N(mu, sigma²).
func NormalCDF(x, mu, sigma float64) float64 {
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// Digamma returns ψ(x), the derivative of log Γ, for x > 0, via the
// recurrence ψ(x) = ψ(x+1) − 1/x and the asymptotic series for large x.
func Digamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	var acc float64
	for x < 10 {
		acc -= 1 / x
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// ln x − 1/(2x) − 1/(12x²) + 1/(120x⁴) − 1/(252x⁶) + 1/(240x⁸)
	return acc + math.Log(x) - inv/2 -
		inv2*(1.0/12-inv2*(1.0/120-inv2*(1.0/252-inv2/240)))
}

// KDE is a one-dimensional Gaussian kernel density estimate, used to
// reproduce the "distribution over the full data / within the subgroup"
// curves of Fig. 1.
type KDE struct {
	xs []float64
	h  float64 // bandwidth
}

// NewKDE builds a Gaussian KDE over xs. If bandwidth ≤ 0, Silverman's
// rule of thumb h = 1.06·σ̂·n^(−1/5) is used (with σ̂ the sample standard
// deviation, floored to a small positive value for degenerate samples).
func NewKDE(xs []float64, bandwidth float64) *KDE {
	if len(xs) == 0 {
		panic("stats: KDE needs at least one point")
	}
	h := bandwidth
	if h <= 0 {
		sd := math.Sqrt(Variance(xs))
		if sd < 1e-9 {
			sd = 1e-9
		}
		h = 1.06 * sd * math.Pow(float64(len(xs)), -0.2)
	}
	return &KDE{xs: append([]float64(nil), xs...), h: h}
}

// PDF returns the estimated density at x.
func (k *KDE) PDF(x float64) float64 {
	var s float64
	for _, xi := range k.xs {
		s += NormalPDF(x, xi, k.h)
	}
	return s / float64(len(k.xs))
}

// Grid evaluates the density on m equally spaced points spanning
// [lo, hi] and returns the locations and densities.
func (k *KDE) Grid(lo, hi float64, m int) (xs, ds []float64) {
	if m < 2 {
		panic("stats: KDE grid needs at least 2 points")
	}
	xs = make([]float64, m)
	ds = make([]float64, m)
	step := (hi - lo) / float64(m-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		ds[i] = k.PDF(xs[i])
	}
	return xs, ds
}

// ECDF returns the empirical CDF of xs evaluated at x: the fraction of
// samples ≤ x.
func ECDF(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range xs {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
