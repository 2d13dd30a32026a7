// Package pattern implements the pattern syntax of §II-A of the paper:
// subgroup intentions (conjunctions of conditions on the description
// attributes), their extensions (the index set of matching data points,
// stored as bitsets), and the two pattern types built on top of them —
// location patterns (an intention plus the subgroup mean of the targets)
// and spread patterns (an intention plus a unit direction w and the
// subgroup variance along w).
package pattern

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/mat"
)

// Op is a condition operator.
type Op int

// Operators: LE/GE apply to numeric and ordinal attributes, EQ/NE
// (set inclusion/exclusion, §II-A of the paper) to categorical and
// binary ones.
const (
	LE Op = iota // attr ≤ threshold
	GE           // attr ≥ threshold
	EQ           // attr == level (inclusion)
	NE           // attr != level (exclusion)
)

// String returns the operator glyph.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	case NE:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Condition is a single condition on one description attribute.
type Condition struct {
	Attr      int     // index into Dataset.Descriptors
	Op        Op      // LE/GE for continuous attributes, EQ for discrete
	Threshold float64 // used by LE/GE
	Level     int     // used by EQ
}

// Matches reports whether row i of the dataset satisfies the condition.
func (c Condition) Matches(ds *dataset.Dataset, i int) bool {
	col := &ds.Descriptors[c.Attr]
	v := col.Values[i]
	switch c.Op {
	case LE:
		return v <= c.Threshold
	case GE:
		return v >= c.Threshold
	case EQ:
		return int(v) == c.Level
	case NE:
		return int(v) != c.Level
	default:
		panic("pattern: unknown operator")
	}
}

// Extension returns the bitset of rows matching the condition. The
// per-operator loops build each 64-bit word in a register from one
// 64-value block of the column and store it once — a language build
// materializes every condition's extension, so this is the hot path of
// cold language construction, and the per-element read-modify-write of
// the naive form (plus its data-dependent store) is what it avoids. The
// conditional-assign inner body compiles to a flag-set rather than a
// branch, so ~50%-dense percentile splits don't pay a misprediction per
// element.
func (c Condition) Extension(ds *dataset.Dataset) *bitset.Set {
	out := bitset.New(ds.N())
	vals := ds.Descriptors[c.Attr].Values
	words := out.Words()
	n := len(vals)
	for base := 0; base < n; base += 64 {
		end := base + 64
		if end > n {
			end = n
		}
		block := vals[base:end]
		var w uint64
		switch c.Op {
		case LE:
			t := c.Threshold
			for j, v := range block {
				var b uint64
				if v <= t {
					b = 1
				}
				w |= b << uint(j)
			}
		case GE:
			t := c.Threshold
			for j, v := range block {
				var b uint64
				if v >= t {
					b = 1
				}
				w |= b << uint(j)
			}
		case EQ:
			lv := c.Level
			for j, v := range block {
				var b uint64
				if int(v) == lv {
					b = 1
				}
				w |= b << uint(j)
			}
		case NE:
			lv := c.Level
			for j, v := range block {
				var b uint64
				if int(v) != lv {
					b = 1
				}
				w |= b << uint(j)
			}
		default:
			panic("pattern: unknown operator")
		}
		words[base>>6] = w
	}
	return out
}

// Format renders the condition with attribute and level names.
func (c Condition) Format(ds *dataset.Dataset) string {
	col := &ds.Descriptors[c.Attr]
	if c.Op == EQ || c.Op == NE {
		level := "?"
		if c.Level >= 0 && c.Level < len(col.Levels) {
			level = col.Levels[c.Level]
		}
		return fmt.Sprintf("%s %s '%s'", col.Name, c.Op, level)
	}
	return fmt.Sprintf("%s %s %s", col.Name, c.Op,
		strconv.FormatFloat(c.Threshold, 'g', 6, 64))
}

// key is a canonical, dataset-independent encoding used for ordering and
// deduplication.
func (c Condition) key() string {
	return fmt.Sprintf("%d|%d|%s|%d", c.Attr, c.Op,
		strconv.FormatFloat(c.Threshold, 'b', -1, 64), c.Level)
}

// Intention is a conjunction of conditions (the subgroup description).
type Intention []Condition

// Canonical returns a sorted copy, so that logically equal intentions
// compare equal via Key.
func (in Intention) Canonical() Intention {
	out := append(Intention(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// Key returns a canonical string identity for the intention.
func (in Intention) Key() string {
	c := in.Canonical()
	parts := make([]string, len(c))
	for i, cond := range c {
		parts[i] = cond.key()
	}
	return strings.Join(parts, "&")
}

// Contains reports whether the intention already includes an identical
// condition.
func (in Intention) Contains(c Condition) bool {
	k := c.key()
	for _, have := range in {
		if have.key() == k {
			return true
		}
	}
	return false
}

// Extend returns a new intention with c appended.
func (in Intention) Extend(c Condition) Intention {
	out := make(Intention, 0, len(in)+1)
	out = append(out, in...)
	return append(out, c)
}

// Extension returns the bitset of rows matching all conditions.
func (in Intention) Extension(ds *dataset.Dataset) *bitset.Set {
	if len(in) == 0 {
		return bitset.Full(ds.N())
	}
	ext := in[0].Extension(ds)
	for _, c := range in[1:] {
		bitset.AndInto(ext, ext, c.Extension(ds))
	}
	return ext
}

// Format renders the intention as a conjunction, e.g.
// "a4 = '0' AND a3 = '1'". The empty intention renders as "(all)".
func (in Intention) Format(ds *dataset.Dataset) string {
	if len(in) == 0 {
		return "(all)"
	}
	parts := make([]string, len(in))
	for i, c := range in {
		parts[i] = c.Format(ds)
	}
	return strings.Join(parts, " AND ")
}

// Location is a location pattern: an intention together with the
// empirical mean of the targets over its extension, scored by SI.
type Location struct {
	Intention Intention
	Extension *bitset.Set
	Mean      mat.Vec // f_I(Ŷ), the subgroup target mean
	IC        float64
	DL        float64
	SI        float64
}

// Size returns the number of covered data points.
func (l *Location) Size() int { return l.Extension.Count() }

// Format renders the pattern for display.
func (l *Location) Format(ds *dataset.Dataset) string {
	return fmt.Sprintf("%s  (size=%d, SI=%.4g, IC=%.4g, DL=%.3g)",
		l.Intention.Format(ds), l.Size(), l.SI, l.IC, l.DL)
}

// Spread is a spread pattern: an intention, a unit direction w in target
// space, and the empirical variance of the subgroup along w (computed
// around the subgroup mean, Eq. 2 of the paper).
type Spread struct {
	Intention Intention
	Extension *bitset.Set
	Center    mat.Vec // ŷ_I, the subgroup mean the variance is taken around
	W         mat.Vec // unit direction
	Variance  float64 // v̂ = g_I^w(Ŷ)
	IC        float64
	DL        float64
	SI        float64
}

// Size returns the number of covered data points.
func (s *Spread) Size() int { return s.Extension.Count() }

// Format renders the pattern for display.
func (s *Spread) Format(ds *dataset.Dataset) string {
	comps := make([]string, len(s.W))
	for i, v := range s.W {
		comps[i] = strconv.FormatFloat(v, 'f', 3, 64)
	}
	return fmt.Sprintf("%s  w=(%s) var=%.4g  (size=%d, SI=%.4g, IC=%.4g, DL=%.3g)",
		s.Intention.Format(ds), strings.Join(comps, ","), s.Variance,
		s.Size(), s.SI, s.IC, s.DL)
}

// SubgroupMean computes f_I(Ŷ): the mean target vector over the rows in
// ext.
func SubgroupMean(y *mat.Dense, ext *bitset.Set) mat.Vec {
	d := y.C
	out := make(mat.Vec, d)
	cnt := 0
	ext.ForEach(func(i int) {
		row := y.Row(i)
		for j, v := range row {
			out[j] += v
		}
		cnt++
	})
	if cnt > 0 {
		out.Scale(1 / float64(cnt))
	}
	return out
}

// SubgroupVariance computes g_I^w(Ŷ): the variance of the rows in ext
// projected on w, around the given center (normally the subgroup mean).
func SubgroupVariance(y *mat.Dense, ext *bitset.Set, center, w mat.Vec) float64 {
	var s float64
	cnt := 0
	ext.ForEach(func(i int) {
		row := y.Row(i)
		var p float64
		for j, v := range row {
			p += (v - center[j]) * w[j]
		}
		s += p * p
		cnt++
	})
	if cnt == 0 {
		return 0
	}
	return s / float64(cnt)
}

// SubgroupScatter returns S = (1/|I|) Σ_{i∈I} (yᵢ−c)(yᵢ−c)ᵀ, so that
// g_I^w(Ŷ) = wᵀ·S·w for every direction w. The spread optimizer
// evaluates many directions against the same extension, so the scatter
// is computed once. The rank-1 updates accumulate only the upper
// triangle — for finite data the (a,b) and (b,a) products are the same
// multiplications in the same order, so mirroring at the end
// reproduces exactly what the former full outer-product accumulation
// plus Symmetrize produced, at half the flops. (The zero-row skip
// matches the one AddOuterScaled always had; only rows with exotic
// NaN/Inf targets could tell the two apart.)
func SubgroupScatter(y *mat.Dense, ext *bitset.Set, center mat.Vec) *mat.Dense {
	d := y.C
	s := mat.NewDense(d, d)
	cnt := 0
	diff := make(mat.Vec, d)
	data := s.Data
	ext.ForEach(func(i int) {
		row := y.Row(i)
		for j, v := range row {
			diff[j] = v - center[j]
		}
		for a, da := range diff {
			if da == 0 {
				continue
			}
			sr := data[a*d : (a+1)*d]
			for b := a; b < d; b++ {
				sr[b] += da * diff[b]
			}
		}
		cnt++
	})
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			data[b*d+a] = data[a*d+b]
		}
	}
	if cnt > 0 {
		s.Scale(1 / float64(cnt))
	}
	return s
}

// AllConditions enumerates the elementary conditions of the search
// language for a dataset: for every numeric/ordinal descriptor, LE and
// GE conditions at numSplits percentile split points (the paper uses 4:
// the 1/5–4/5 percentiles); for every categorical/binary descriptor,
// one EQ (inclusion) condition per level; and for categorical
// descriptors with three or more levels, one NE (exclusion) condition
// per level — the "set in-/exclusion conditions" of §II-A. (For binary
// attributes NE duplicates the other level's EQ and is skipped.)
//
// A build allocates only the condition slice, pre-sized to its upper
// bound, and one 2n selection scratch that the first numeric column's
// split points grow and every later one reuses.
func AllConditions(ds *dataset.Dataset, numSplits int) []Condition {
	size := 0
	for ai := range ds.Descriptors {
		col := &ds.Descriptors[ai]
		switch {
		case !col.IsDiscrete():
			size += 2 * numSplits
		case len(col.Levels) > 2:
			size += 2 * len(col.Levels)
		default:
			size += len(col.Levels)
		}
	}
	out := make([]Condition, 0, size)
	var scratch []uint64
	for ai := range ds.Descriptors {
		col := &ds.Descriptors[ai]
		if col.IsDiscrete() {
			for li := range col.Levels {
				out = append(out, Condition{Attr: ai, Op: EQ, Level: li})
			}
			if len(col.Levels) > 2 {
				for li := range col.Levels {
					out = append(out, Condition{Attr: ai, Op: NE, Level: li})
				}
			}
			continue
		}
		for _, t := range dataset.SplitPoints(col, numSplits, &scratch) {
			out = append(out, Condition{Attr: ai, Op: LE, Threshold: t})
			out = append(out, Condition{Attr: ai, Op: GE, Threshold: t})
		}
	}
	return out
}
