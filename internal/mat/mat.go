// Package mat provides the dense linear algebra needed by the subgroup
// discovery library: column vectors, square symmetric matrices, Cholesky
// factorization with SPD solves and log-determinants, and a Jacobi
// eigendecomposition for symmetric matrices.
//
// The package replaces the MATLAB substrate used by the original paper
// implementation. It is deliberately small: matrices in this project are
// target-dimension × target-dimension (d ≤ a few hundred), so simple
// cache-friendly loops beat any blocking scheme we could write by hand.
//
// All matrices are row-major and dense. Operations never alias-check
// beyond what is documented; callers must not pass the receiver as an
// argument unless the method documents it as safe.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned by Cholesky-based routines when the input matrix
// is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// Vec is a dense column vector.
type Vec []float64

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product v·w. The vectors must have equal length.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// AddScaled sets v = v + a*w in place and returns v.
func (v Vec) AddScaled(a float64, w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale multiplies v by a in place and returns v.
func (v Vec) Scale(a float64) Vec {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Normalize scales v to unit Euclidean norm in place and returns v.
// A zero vector is left unchanged.
func (v Vec) Normalize() Vec {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Dense is a dense row-major n×m matrix.
type Dense struct {
	R, C int
	Data []float64 // len == R*C, row-major
}

// NewDense returns a zero R×C matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Clone returns an independent copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) Vec { return Vec(m.Data[i*m.C : (i+1)*m.C]) }

// AddScaled sets m = m + a*b in place. Dimensions must match.
func (m *Dense) AddScaled(a float64, b *Dense) {
	if m.R != b.R || m.C != b.C {
		panic("mat: AddScaled dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] += a * b.Data[i]
	}
}

// Scale multiplies every element of m by a, in place.
func (m *Dense) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// MulVecInto computes m·v into dst (len m.R, must not alias v) and
// returns it, with no allocations.
func (m *Dense) MulVecInto(dst Vec, v Vec) Vec {
	if len(v) != m.C {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d vs %d", m.C, len(v)))
	}
	if len(dst) != m.R {
		panic("mat: MulVecInto destination length mismatch")
	}
	out := dst
	for i := 0; i < m.R; i++ {
		row := m.Data[i*m.C : (i+1)*m.C]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Data[j*out.C+i] = m.Data[i*m.C+j]
		}
	}
	return out
}

// QuadForm returns wᵀ·m·w for square m.
func (m *Dense) QuadForm(w Vec) float64 {
	if m.R != m.C || len(w) != m.R {
		panic("mat: QuadForm dimension mismatch")
	}
	var s float64
	for i := 0; i < m.R; i++ {
		row := m.Data[i*m.C : (i+1)*m.C]
		var ri float64
		for j, x := range row {
			ri += x * w[j]
		}
		s += w[i] * ri
	}
	return s
}

// AddOuterScaled sets m = m + a·(u vᵀ) in place for square or rectangular m.
func (m *Dense) AddOuterScaled(a float64, u, v Vec) {
	if len(u) != m.R || len(v) != m.C {
		panic("mat: AddOuterScaled dimension mismatch")
	}
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		row := m.Data[i*m.C : (i+1)*m.C]
		f := a * ui
		for j, vj := range v {
			row[j] += f * vj
		}
	}
}

// Symmetrize replaces m with (m + mᵀ)/2. m must be square. It is used to
// remove the tiny asymmetries that accumulate in repeated rank-1 updates.
func (m *Dense) Symmetrize() {
	if m.R != m.C {
		panic("mat: Symmetrize needs a square matrix")
	}
	n := m.R
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// MaxAbsDiff returns the maximum absolute elementwise difference between
// m and b, for testing convergence.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	if m.R != b.R || m.C != b.C {
		panic("mat: MaxAbsDiff dimension mismatch")
	}
	var mx float64
	for i, x := range m.Data {
		d := math.Abs(x - b.Data[i])
		if d > mx {
			mx = d
		}
	}
	return mx
}

// Cholesky holds the lower-triangular Cholesky factor L with A = L·Lᵀ.
type Cholesky struct {
	N int
	L []float64 // row-major lower triangle (full storage, upper part zero)
}

// NewCholesky factorizes the symmetric positive definite matrix a.
// Only the lower triangle of a is read. Returns ErrNotSPD if a pivot is
// not strictly positive.
func NewCholesky(a *Dense) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor (re)factorizes a into the receiver, reusing the existing L
// storage when the dimensions match — the allocation-free path for
// scorers that refactorize a scratch covariance per candidate. On error
// the receiver's factorization is invalid and must not be used.
func (c *Cholesky) Factor(a *Dense) error {
	if a.R != a.C {
		return fmt.Errorf("mat: Cholesky needs a square matrix, got %dx%d", a.R, a.C)
	}
	n := a.R
	if len(c.L) != n*n {
		c.L = make([]float64, n*n)
	} else {
		// The algorithm writes every lower-triangle entry, but stale
		// strict-upper entries from a previous factorization must be
		// cleared (they are documented as zero).
		for i := 0; i < n; i++ {
			row := c.L[i*n+i+1 : (i+1)*n]
			for k := range row {
				row[k] = 0
			}
		}
	}
	c.N = n
	l := c.L
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.Data[i*n+j]
			li := l[i*n : i*n+j]
			lj := l[j*n : j*n+j]
			for k := range li {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return ErrNotSPD
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b into dst (which may alias b) and returns it,
// with no allocations — the hot-path form used by the fused scorers.
func (c *Cholesky) SolveInto(dst, b Vec) Vec {
	if len(b) != c.N || len(dst) != c.N {
		panic("mat: Cholesky.SolveInto dimension mismatch")
	}
	n := c.N
	x := dst
	copy(x, b)
	// Forward substitution L y = b.
	for i := 0; i < n; i++ {
		row := c.L[i*n : i*n+i]
		s := x[i]
		for k, lv := range row {
			s -= lv * x[k]
		}
		x[i] = s / c.L[i*n+i]
	}
	// Backward substitution Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= c.L[k*n+i] * x[k]
		}
		x[i] = s / c.L[i*n+i]
	}
	return x
}

// MahalanobisSq returns bᵀ·A⁻¹·b for the factorized A = L·Lᵀ as the
// squared norm of the half-solve y = L⁻¹b — a forward substitution plus
// a fused sum of squares, half the flops of SolveInto followed by a dot
// product. scratch must have length N; it may alias b (each yᵢ is
// written after bᵢ was read). This is the form every IC evaluation
// uses: the quadratic form is all they need from the solve.
func (c *Cholesky) MahalanobisSq(scratch, b Vec) float64 {
	if len(b) != c.N || len(scratch) != c.N {
		panic("mat: Cholesky.MahalanobisSq dimension mismatch")
	}
	n := c.N
	y := scratch
	var q float64
	for i := 0; i < n; i++ {
		row := c.L[i*n : i*n+i]
		s := b[i]
		// The subtracted dot product runs in four independent partial
		// sums: a single accumulator serializes on the 4-cycle FP-add
		// latency, which dominates every wide-target IC evaluation
		// (d=124 means ~7.7k multiply-adds per call). The fixed
		// (d0+d1)+(d2+d3) combine keeps the result deterministic and
		// scheduling-independent.
		yr := y[:len(row)]
		var d0, d1, d2, d3 float64
		k := 0
		for ; k+4 <= len(row); k += 4 {
			d0 += row[k] * yr[k]
			d1 += row[k+1] * yr[k+1]
			d2 += row[k+2] * yr[k+2]
			d3 += row[k+3] * yr[k+3]
		}
		for ; k < len(row); k++ {
			d0 += row[k] * yr[k]
		}
		s -= (d0 + d1) + (d2 + d3)
		s /= c.L[i*n+i]
		y[i] = s
		q += s * s
	}
	return q
}

// LogDet returns log|A| of the factorized matrix.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.N; i++ {
		s += math.Log(c.L[i*c.N+i])
	}
	return 2 * s
}

// SymEig computes the eigendecomposition of the symmetric matrix a using
// the cyclic Jacobi method. It returns the eigenvalues in descending
// order and the matrix of corresponding eigenvectors stored as columns.
// The input is not modified.
func SymEig(a *Dense) (vals []float64, vecs *Dense, err error) {
	if a.R != a.C {
		return nil, nil, fmt.Errorf("mat: SymEig needs a square matrix, got %dx%d", a.R, a.C)
	}
	n := a.R
	w := a.Clone()
	w.Symmetrize()
	v := Eye(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.Data[i*n+j] * w.Data[i*n+j]
			}
		}
		if math.Sqrt(2*off) <= 1e-14*(1+frobNorm(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.Data[p*n+q]
				if apq == 0 {
					continue
				}
				app := w.Data[p*n+p]
				aqq := w.Data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				jacobiRotate(w, v, p, q, cth, sth)
			}
		}
	}

	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.Data[i*n+i]
	}
	// Sort eigenvalues (and eigenvector columns) in descending order.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort: n is small
		for j := i; j > 0 && vals[idx[j]] > vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := NewDense(n, n)
	for k, src := range idx {
		sortedVals[k] = vals[src]
		for i := 0; i < n; i++ {
			sortedVecs.Data[i*n+k] = v.Data[i*n+src]
		}
	}
	return sortedVals, sortedVecs, nil
}

func frobNorm(m *Dense) float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// jacobiRotate applies the rotation G(p,q,θ) to w (two-sided) and
// accumulates it into v (one-sided).
func jacobiRotate(w, v *Dense, p, q int, c, s float64) {
	n := w.R
	for k := 0; k < n; k++ {
		wkp := w.Data[k*n+p]
		wkq := w.Data[k*n+q]
		w.Data[k*n+p] = c*wkp - s*wkq
		w.Data[k*n+q] = s*wkp + c*wkq
	}
	for k := 0; k < n; k++ {
		wpk := w.Data[p*n+k]
		wqk := w.Data[q*n+k]
		w.Data[p*n+k] = c*wpk - s*wqk
		w.Data[q*n+k] = s*wpk + c*wqk
	}
	for k := 0; k < n; k++ {
		vkp := v.Data[k*n+p]
		vkq := v.Data[k*n+q]
		v.Data[k*n+p] = c*vkp - s*vkq
		v.Data[k*n+q] = s*vkp + c*vkq
	}
}
