package background

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// The JSON wire format for a saved model is modelJSON, for both
// SaveJSON and LoadJSONExact. Groups carry the current parameters;
// constraints carry their extensions and targets, so a loaded model can
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
	return saveJSON(w, m.version, m.n, m.d, m.Tol, m.MaxSweeps, m.groups, m.cons)
}

// SaveJSON serializes this published version. Safe for concurrent
// callers: everything reachable from a version is immutable, so the
// snapshot is consistent even while later commits proceed.
func (v *ModelVersion) SaveJSON(w io.Writer) error {
	return saveJSON(w, v.version, v.n, v.d, v.tol, v.maxSweeps, v.groups, v.cons)
}

// saveJSON fills a modelJSON and encodes it with encoding/json, which
// writes the object and its newline in one Write, or nothing when a
// parameter is NaN or infinite. The group and constraint lists are
// built by appending to nil, so an empty list encodes as null.
func saveJSON(w io.Writer, version uint64, n, d int, tol float64, maxSweeps int, groups []*Group, cons []constraint) error {
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
	return json.NewEncoder(w).Encode(&out)
}

// maxLoadSetWords bounds the 64-bit words LoadJSONExact allocates for
// the n-bit member and extension sets of a model's groups and
// constraints: 1<<22 words is 32 MiB, room for 2 000 groups and
// constraints over 130 000 points. A larger payload is ErrCorrupt.
const maxLoadSetWords = 1 << 22

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
	// Every group and every constraint gets an n-bit set, and an empty
	// extension costs a few payload bytes, so the sets' memory would
	// otherwise grow with the square of the payload's size.
	if sets, words := len(in.Groups)+len(in.Constraints), (in.N+63)/64; sets > maxLoadSetWords/words {
		return nil, corrupt("%d groups and constraints over %d points exceed the load bound", sets, in.N)
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
