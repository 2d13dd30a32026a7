package background

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// The JSON wire format for a saved model. Groups carry the current
// parameters; constraints are replayed on load so a restored model can
// keep committing patterns with full coordinate-descent consistency.

// ErrCorrupt tags model payloads that cannot be decoded or fail
// structural validation (truncated JSON, inconsistent dimensions,
// non-SPD covariances, groups not partitioning the points). Callers
// restoring persisted state match it with errors.Is to distinguish
// a damaged file from an operational failure.
var ErrCorrupt = errors.New("background: corrupt model payload")

// corrupt wraps err (and its formatted context) with ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// modelFormat is the current model wire-format version; 0 (absent)
// marks files written before versioning, which load identically.
const modelFormat = 1

type modelJSON struct {
	Format    int     `json:"format,omitempty"`
	N         int     `json:"n"`
	D         int     `json:"d"`
	Tol       float64 `json:"tol"`
	MaxSweeps int     `json:"maxSweeps"`
	// ModelVersion stamps which published version the snapshot
	// serialized, so a client holding mine results annotated with
	// model versions can tell which of them this file reflects.
	// Absent (0) in files written before versioning; restore derives
	// the stamp from the constraint count then.
	ModelVersion uint64           `json:"modelVersion,omitempty"`
	Groups       []groupJSON      `json:"groups"`
	Constraints  []constraintJSON `json:"constraints"`
}

type groupJSON struct {
	Members []int     `json:"members"`
	Mu      []float64 `json:"mu"`
	Sigma   []float64 `json:"sigma"` // row-major d×d
}

type constraintJSON struct {
	Kind   string    `json:"kind"` // "location" or "spread"
	Ext    []int     `json:"ext"`
	Target []float64 `json:"target,omitempty"` // location: ŷ_I
	W      []float64 `json:"w,omitempty"`      // spread
	Center []float64 `json:"center,omitempty"` // spread
	Value  float64   `json:"value,omitempty"`  // spread: v̂
}

// SaveJSON serializes the full model state — group parameters and the
// committed constraint list, stamped with the current version — so an
// interactive session can be persisted and resumed. It reads the live
// state and therefore belongs to the writer; concurrent contexts
// serialize a published snapshot via ModelVersion.SaveJSON instead.
// The output is one JSON object and a newline, written in one Write.
func (m *Model) SaveJSON(w io.Writer) error {
	b, err := encodeModel(m.version, m.n, m.d, m.Tol, m.MaxSweeps, m.groups, m.cons)
	return writeModel(w, b, err)
}

// SaveJSON serializes this published version. Safe for concurrent
// callers: everything reachable from a version is immutable, so the
// snapshot is consistent even while later commits proceed.
func (v *ModelVersion) SaveJSON(w io.Writer) error {
	b, err := v.EncodeJSON()
	return writeModel(w, b, err)
}

// EncodeJSON returns the bytes SaveJSON writes, trailing newline
// included, in one buffer of exactly their size — the form a session
// snapshot stores.
func (v *ModelVersion) EncodeJSON() ([]byte, error) {
	return encodeModel(v.version, v.n, v.d, v.tol, v.maxSweeps, v.groups, v.cons)
}

// writeModel writes an encoded model in one Write, or reports the
// encoding error with nothing written.
func writeModel(w io.Writer, b []byte, err error) error {
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// encodeModel writes the model's JSON by hand, byte for byte what
// json.NewEncoder(w).Encode(&modelJSON{...}) writes (field order,
// omitempty, null for an empty group or constraint list, encoding/json's
// float format, a trailing newline); serialize_ref_test.go keeps that
// reflection encoder as the reference. Member and extension indices
// come straight from the bitset words, so no []int is built. The walk
// runs twice: a measuring pass, which also rejects a NaN or infinite
// parameter before anything is allocated, then a fill pass into one
// buffer of exactly the measured size.
func encodeModel(version uint64, n, d int, tol float64, maxSweeps int, groups []*Group, cons []constraint) ([]byte, error) {
	var e modelEncoder
	e.model(version, n, d, tol, maxSweeps, groups, cons)
	if e.err != nil {
		return nil, e.err
	}
	e.buf = make([]byte, 0, e.n)
	e.fill = true
	e.model(version, n, d, tol, maxSweeps, groups, cons)
	return e.buf, nil
}

// modelEncoder is one encodeModel pass: measuring counts bytes in n,
// filling appends them to buf.
type modelEncoder struct {
	fill bool
	buf  []byte
	n    int
	err  error
	// sigmas records where each distinct covariance was written this
	// pass, so a Σ shared by pointer across groups (split siblings
	// always share one) is formatted once and copied after that.
	// Matrices beyond the first len(sigmas) are formatted each time.
	sigmas  [16]sigmaSpan
	nsigmas int
	// entries[k] is where the current matrix's k-th entry starts,
	// relative to the matrix, for matrices of up to 32×32.
	entries [32 * 32]uint32
	// texts caches the measuring pass's float texts, each prefixed by
	// its length, in the order it formats them; the fill pass formats
	// floats in the same order, so it copies the first cached bytes
	// back instead of formatting them again. A water model snapshot
	// (d=16, six spread commits) fits whole. The cache lives on the
	// stack: it is not an allocation and outlives no call.
	texts        [48 << 10]byte
	cached, read int
}

type sigmaSpan struct {
	sigma    *mat.Dense
	off, len int
}

func (e *modelEncoder) model(version uint64, n, d int, tol float64, maxSweeps int, groups []*Group, cons []constraint) {
	e.nsigmas = 0
	e.str(`{"format":`)
	e.uint(modelFormat)
	e.str(`,"n":`)
	e.int(n)
	e.str(`,"d":`)
	e.int(d)
	e.str(`,"tol":`)
	e.float(tol)
	e.str(`,"maxSweeps":`)
	e.int(maxSweeps)
	if version != 0 {
		e.str(`,"modelVersion":`)
		e.uint(version)
	}
	e.str(`,"groups":`)
	e.list(len(groups), func(i int) {
		g := groups[i]
		e.str(`{"members":`)
		e.indices(g.Members)
		e.str(`,"mu":`)
		e.floats(g.Mu)
		e.str(`,"sigma":`)
		e.sigma(g.Sigma)
		e.byte('}')
	})
	e.str(`,"constraints":`)
	e.list(len(cons), func(i int) {
		switch c := cons[i].(type) {
		case *locationConstraint:
			e.str(`{"kind":"location","ext":`)
			e.indices(c.ext)
			e.omitFloats(`,"target":`, c.target)
		case *spreadConstraint:
			e.str(`{"kind":"spread","ext":`)
			e.indices(c.ext)
			e.omitFloats(`,"w":`, c.w)
			e.omitFloats(`,"center":`, c.center)
			if c.value != 0 {
				e.str(`,"value":`)
				e.float(c.value)
			}
		default:
			if e.err == nil {
				e.err = fmt.Errorf("background: unknown constraint type %T", c)
			}
		}
		e.byte('}')
	})
	e.str("}\n")
}

// pos is the current output length.
func (e *modelEncoder) pos() int {
	if e.fill {
		return len(e.buf)
	}
	return e.n
}

func (e *modelEncoder) byte(c byte) {
	if e.fill {
		e.buf = append(e.buf, c)
	} else {
		e.n++
	}
}

func (e *modelEncoder) str(s string) {
	if e.fill {
		e.buf = append(e.buf, s...)
	} else {
		e.n += len(s)
	}
}

// list writes n items as a JSON array, or null when there are none:
// the reference builds the group and constraint lists by appending to
// a nil slice.
func (e *modelEncoder) list(n int, item func(i int)) {
	if n == 0 {
		e.str("null")
		return
	}
	e.byte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.byte(',')
		}
		item(i)
	}
	e.byte(']')
}

func (e *modelEncoder) int(i int) {
	if i < 0 {
		e.byte('-')
		e.uint(uint64(-i))
		return
	}
	e.uint(uint64(i))
}

func (e *modelEncoder) uint(u uint64) {
	if e.fill {
		e.buf = strconv.AppendUint(e.buf, u, 10)
	} else {
		e.n += decimalLen(u)
	}
}

// float writes f in encoding/json's format: shortest round-trip
// digits, 'e' notation outside [1e-6, 1e21) with the exponent's
// leading zero dropped. A non-finite f records an error, which the
// measuring pass reports before the fill pass runs.
func (e *modelEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("background: cannot encode non-finite model parameter %v", f)
		}
		return
	}
	if !e.fill {
		// Keep the text, length-prefixed, while the cache has room.
		if c := e.cached; c+1+maxFloatText <= len(e.texts) {
			t := appendFloat(e.texts[c+1:c+1], f)
			e.texts[c] = byte(len(t))
			e.cached += 1 + len(t)
			e.n += len(t)
			return
		}
		var scratch [maxFloatText]byte
		e.n += len(appendFloat(scratch[:0], f))
		return
	}
	if r := e.read; r < e.cached {
		t := e.texts[r+1 : r+1+int(e.texts[r])]
		e.buf = append(e.buf, t...)
		e.read += 1 + len(t)
		return
	}
	e.buf = appendFloat(e.buf, f)
}

// maxFloatText bounds appendFloat's output, reached by "-0.00000"
// followed by 17 digits; 'e' notation needs at most 24 bytes.
const maxFloatText = 25

func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// floats writes a float list; nil is null, like encoding/json.
func (e *modelEncoder) floats(fs []float64) {
	if fs == nil {
		e.str("null")
		return
	}
	e.byte('[')
	for i, f := range fs {
		if i > 0 {
			e.byte(',')
		}
		e.float(f)
	}
	e.byte(']')
}

// omitFloats writes key and fs unless fs is empty (omitempty).
func (e *modelEncoder) omitFloats(key string, fs []float64) {
	if len(fs) > 0 {
		e.str(key)
		e.floats(fs)
	}
}

// sigma writes a covariance's row-major entries. It copies the bytes
// of an earlier group's identical (same pointer) matrix when there is
// one, and otherwise copies each below-diagonal entry from its mirror
// above the diagonal when the two are bit-identical (a covariance is
// symmetric), so only the upper triangle is formatted.
func (e *modelEncoder) sigma(s *mat.Dense) {
	for _, sp := range e.sigmas[:e.nsigmas] {
		if sp.sigma == s {
			e.copyOut(sp.off, sp.len)
			return
		}
	}
	off := e.pos()
	e.matrix(s)
	if e.nsigmas < len(e.sigmas) {
		e.sigmas[e.nsigmas] = sigmaSpan{sigma: s, off: off, len: e.pos() - off}
		e.nsigmas++
	}
}

func (e *modelEncoder) matrix(s *mat.Dense) {
	d := s.R
	if s.C != d || len(s.Data) != d*d || d*d > len(e.entries) {
		e.floats(s.Data)
		return
	}
	start := e.pos()
	e.byte('[')
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			k := i*d + j
			if k > 0 {
				e.byte(',')
			}
			e.entries[k] = uint32(e.pos() - start)
			f := s.Data[k]
			if m := j*d + i; j < i && math.Float64bits(s.Data[m]) == math.Float64bits(f) {
				// The mirror's text ends one byte (its comma) before
				// the entry after it starts.
				e.copyOut(start+int(e.entries[m]), int(e.entries[m+1]-e.entries[m])-1)
				continue
			}
			e.float(f)
		}
	}
	e.byte(']')
}

// copyOut repeats n bytes this pass already wrote at off.
func (e *modelEncoder) copyOut(off, n int) {
	if e.fill {
		e.buf = append(e.buf, e.buf[off:off+n]...)
	} else {
		e.n += n
	}
}

// indices writes a set's members in increasing order, read straight
// from its words. Measuring a word whose members all have the same
// number of digits takes one popcount.
func (e *modelEncoder) indices(s *bitset.Set) {
	if !e.fill {
		n := 0 // digits plus one comma per member
		for wi, w := range s.Words() {
			if w == 0 {
				continue
			}
			base := uint64(wi * 64)
			if dl := decimalLen(base + uint64(bits.TrailingZeros64(w))); dl == decimalLen(base+uint64(63-bits.LeadingZeros64(w))) {
				n += bits.OnesCount64(w) * (dl + 1)
				continue
			}
			for ; w != 0; w &= w - 1 {
				n += decimalLen(base+uint64(bits.TrailingZeros64(w))) + 1
			}
		}
		e.n += max(n+1, 2) // brackets, less the last comma
		return
	}
	start := len(e.buf)
	e.buf = append(e.buf, '[')
	for wi, w := range s.Words() {
		for ; w != 0; w &= w - 1 {
			e.buf = strconv.AppendInt(e.buf, int64(wi*64+bits.TrailingZeros64(w)), 10)
			e.buf = append(e.buf, ',')
		}
	}
	if last := len(e.buf) - 1; last > start {
		e.buf[last] = ']'
	} else {
		e.buf = append(e.buf, ']')
	}
}

// decimalLen is the number of decimal digits of u.
func decimalLen(u uint64) int {
	n := 1
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// LoadJSONExact reconstructs a model saved with SaveJSON without
// replaying the constraints. The saved group parameters are taken
// verbatim (they are still validated: SPD covariances, disjoint groups
// covering all points), so a snapshot of a live model restores to the
// exact same float64 parameters — the property session persistence
// needs for restored sessions to reproduce byte-identical mine
// results. A replay could nudge parameters within tolerance: a commit
// leaves violations ≤ Tol, but each projection re-applies whenever the
// violation exceeds Tol/2.
func LoadJSONExact(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, corrupt("decoding model: %v", err)
	}
	if in.Format > modelFormat {
		return nil, fmt.Errorf("background: model format %d not supported (newer writer?)", in.Format)
	}
	if in.N <= 0 || in.D <= 0 {
		return nil, corrupt("invalid dimensions %d×%d", in.N, in.D)
	}
	// Bound every index before any n-bit set is allocated: the member
	// lists partition [0, n), so their total length is n, which bounds
	// n by the payload's size; constraint extensions index the same
	// points.
	members := 0
	for gi, g := range in.Groups {
		if !indicesIn(g.Members, in.N) {
			return nil, corrupt("group %d has a member outside [0, %d)", gi, in.N)
		}
		members += len(g.Members)
	}
	if members != in.N {
		return nil, corrupt("groups list %d members for %d points", members, in.N)
	}
	for ci, c := range in.Constraints {
		if !indicesIn(c.Ext, in.N) {
			return nil, corrupt("constraint %d has an extension index outside [0, %d)", ci, in.N)
		}
	}
	// epoch starts at 1 (like New) so the zero-valued conState caches the
	// first refit lazily grows are recognized as stale and rebuilt — the
	// dependency graph needs no wire format of its own.
	m := &Model{
		n: in.N, d: in.D,
		epoch: 1,
		Tol:   in.Tol, MaxSweeps: in.MaxSweeps,
	}
	if m.Tol <= 0 {
		m.Tol = 1e-8
	}
	if m.MaxSweeps <= 0 {
		m.MaxSweeps = 5000
	}
	// Re-share bit-identical covariances: a live model shares Σ by
	// pointer across split siblings (and across groups a spread update
	// rewrote from the same parent matrix), so a restored model must
	// reproduce that structure for the pointer-keyed kernels downstream
	// (shared-Σ fast path, spread dedup) to behave — and sum in the
	// same order — as on the live model. Each loaded matrix is compared
	// against the distinct representatives only (typically one), and
	// factorized (which doubles as the SPD validation) once per
	// distinct matrix, not once per group.
	var distinct []*Group
	covered := bitset.New(in.N)
	for gi, g := range in.Groups {
		if len(g.Mu) != in.D || len(g.Sigma) != in.D*in.D {
			return nil, corrupt("group %d has inconsistent dimensions", gi)
		}
		sigma := mat.NewDense(in.D, in.D)
		copy(sigma.Data, g.Sigma)
		members := bitset.FromIndices(in.N, g.Members)
		bitset.OrCountInto(covered, covered, members)
		grp := &Group{
			Members: members,
			Count:   members.Count(),
			Mu:      append(mat.Vec(nil), g.Mu...),
		}
		for _, have := range distinct {
			if have.Sigma.MaxAbsDiff(sigma) == 0 {
				grp.Sigma = have.Sigma
				grp.chol.Store(have.chol.Load())
				break
			}
		}
		if grp.Sigma == nil {
			chol, err := mat.NewCholesky(sigma)
			if err != nil {
				return nil, corrupt("group %d covariance not SPD: %v", gi, err)
			}
			grp.Sigma = sigma
			grp.chol.Store(chol)
			distinct = append(distinct, grp)
		}
		m.groups = append(m.groups, grp)
	}
	// The member lists total n, so a point listed twice, in one group
	// or in two, leaves another uncovered.
	if got := covered.Count(); got != in.N {
		return nil, corrupt("groups cover %d of %d points", got, in.N)
	}
	m.rebuildLabels()
	for ci, c := range in.Constraints {
		ext := bitset.FromIndices(in.N, c.Ext)
		switch c.Kind {
		case "location":
			if len(c.Target) != in.D {
				return nil, corrupt("constraint %d target dimension", ci)
			}
			m.cons = append(m.cons, &locationConstraint{
				ext: ext, target: append(mat.Vec(nil), c.Target...),
			})
		case "spread":
			if len(c.W) != in.D || len(c.Center) != in.D || c.Value <= 0 {
				return nil, corrupt("constraint %d spread fields", ci)
			}
			m.cons = append(m.cons, &spreadConstraint{
				ext: ext,
				w:   append(mat.Vec(nil), c.W...), center: append(mat.Vec(nil), c.Center...),
				value: c.Value,
			})
		default:
			return nil, corrupt("constraint %d has unknown kind %q", ci, c.Kind)
		}
	}
	// Restore the version stamp; files from before versioning carry no
	// stamp, so derive it from the commit count (stamps start at 1 and
	// advance by one per commit).
	m.version = in.ModelVersion
	if m.version == 0 {
		m.version = 1 + uint64(len(m.cons))
	}
	m.publishCurrent()
	return m, nil
}

// indicesIn reports whether every index lies in [0, n).
func indicesIn(idx []int, n int) bool {
	for _, i := range idx {
		if i < 0 || i >= n {
			return false
		}
	}
	return true
}
