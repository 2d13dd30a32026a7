// Package dataset defines the data model of the subgroup discovery
// library: a table of n data points, each with a tuple of typed
// description attributes (numeric, ordinal, categorical or binary — the
// x̂ᵢ of the paper) and a vector of real-valued target attributes (the
// ŷᵢ ∈ R^dy). It also provides CSV round-tripping and the percentile
// split points the search uses to discretize numeric descriptors.
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mat"
	"repro/internal/stats"
)

// Kind classifies a description attribute.
type Kind int

// The description attribute kinds supported by the pattern language.
const (
	Numeric     Kind = iota // real-valued; conditions attr ≤ v / attr ≥ v
	Ordinal                 // ordered discrete levels; conditions like Numeric
	Categorical             // unordered levels; conditions attr == level
	Binary                  // two-level categorical; conditions attr == level
)

// String returns the kind's CSV tag.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "num"
	case Ordinal:
		return "ord"
	case Categorical:
		return "cat"
	case Binary:
		return "bin"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "num":
		return Numeric, nil
	case "ord":
		return Ordinal, nil
	case "cat":
		return Categorical, nil
	case "bin":
		return Binary, nil
	default:
		return 0, fmt.Errorf("dataset: unknown attribute kind %q", s)
	}
}

// Column is one description attribute. For Numeric and Ordinal columns
// Values holds the raw numbers; for Categorical and Binary columns it
// holds level indices into Levels.
type Column struct {
	Name   string
	Kind   Kind
	Values []float64
	Levels []string // nil unless Categorical/Binary
}

// IsDiscrete reports whether the column uses equality conditions.
func (c *Column) IsDiscrete() bool { return c.Kind == Categorical || c.Kind == Binary }

// LevelIndex returns the index of the named level, or -1.
func (c *Column) LevelIndex(level string) int {
	for i, l := range c.Levels {
		if l == level {
			return i
		}
	}
	return -1
}

// FormatValue renders row i's value for display.
func (c *Column) FormatValue(i int) string {
	if c.IsDiscrete() {
		li := int(c.Values[i])
		if li >= 0 && li < len(c.Levels) {
			return c.Levels[li]
		}
		return "?"
	}
	return strconv.FormatFloat(c.Values[i], 'g', 6, 64)
}

// Dataset bundles the description attributes with the real-valued target
// matrix Y (n rows × dy columns).
type Dataset struct {
	Name        string
	Descriptors []Column
	TargetNames []string
	Y           *mat.Dense
}

// N returns the number of data points.
func (d *Dataset) N() int { return d.Y.R }

// Dy returns the number of target attributes.
func (d *Dataset) Dy() int { return d.Y.C }

// Dx returns the number of description attributes.
func (d *Dataset) Dx() int { return len(d.Descriptors) }

// Descriptor returns the column with the given name, or nil.
func (d *Dataset) Descriptor(name string) *Column {
	for i := range d.Descriptors {
		if d.Descriptors[i].Name == name {
			return &d.Descriptors[i]
		}
	}
	return nil
}

// Validate checks internal consistency: equal column lengths, level
// indices in range, finite target values.
func (d *Dataset) Validate() error {
	n := d.N()
	if len(d.TargetNames) != d.Dy() {
		return fmt.Errorf("dataset %q: %d target names for %d target columns",
			d.Name, len(d.TargetNames), d.Dy())
	}
	for i := range d.Descriptors {
		c := &d.Descriptors[i]
		if len(c.Values) != n {
			return fmt.Errorf("dataset %q: column %q has %d values, want %d",
				d.Name, c.Name, len(c.Values), n)
		}
		if c.IsDiscrete() {
			if len(c.Levels) == 0 {
				return fmt.Errorf("dataset %q: discrete column %q has no levels", d.Name, c.Name)
			}
			if c.Kind == Binary && len(c.Levels) != 2 {
				return fmt.Errorf("dataset %q: binary column %q has %d levels",
					d.Name, c.Name, len(c.Levels))
			}
			for r, v := range c.Values {
				li := int(v)
				if float64(li) != v || li < 0 || li >= len(c.Levels) {
					return fmt.Errorf("dataset %q: column %q row %d: invalid level index %v",
						d.Name, c.Name, r, v)
				}
			}
		} else {
			for r, v := range c.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("dataset %q: column %q row %d: non-finite value",
						d.Name, c.Name, r)
				}
			}
		}
	}
	for i, v := range d.Y.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset %q: target cell %d non-finite", d.Name, i)
		}
	}
	return nil
}

// TargetColumn returns target column j as a fresh slice.
func (d *Dataset) TargetColumn(j int) []float64 {
	out := make([]float64, d.N())
	for i := range out {
		out[i] = d.Y.At(i, j)
	}
	return out
}

// TargetIndex returns the index of the named target, or -1.
func (d *Dataset) TargetIndex(name string) int {
	for i, t := range d.TargetNames {
		if t == name {
			return i
		}
	}
	return -1
}

// SplitPoints returns the thresholds the search uses for a numeric or
// ordinal column: k interior percentiles (k=4 gives the paper's 1/5–4/5
// percentile split points), deduplicated and sorted. scratch is the
// selection key buffer handed to stats.Percentiles, reused across calls.
func SplitPoints(c *Column, k int, scratch *[]uint64) []float64 {
	if c.IsDiscrete() {
		return nil
	}
	if k < 1 {
		panic("dataset: SplitPoints needs k >= 1")
	}
	ps := make([]float64, k)
	for i := 1; i <= k; i++ {
		ps[i-1] = 100 * float64(i) / float64(k+1)
	}
	// Partial selection instead of a full sort: identical values (same
	// order statistics, same interpolation), a fraction of the cost — a
	// language build runs this over every numeric column.
	out := stats.Percentiles(c.Values, ps, scratch)
	sort.Float64s(out)
	// Deduplicate near-equal thresholds (constant or heavily tied columns).
	dedup := out[:0]
	for _, v := range out {
		if len(dedup) == 0 || v > dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// WriteCSV serializes the dataset. The header cell format is
// "name:role:kind" with role ∈ {d, t}; target columns always have kind
// num. Discrete descriptor cells are written as their level strings.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, d.Dx()+d.Dy())
	for i := range d.Descriptors {
		c := &d.Descriptors[i]
		header = append(header, fmt.Sprintf("%s:d:%s", c.Name, c.Kind))
	}
	for _, t := range d.TargetNames {
		header = append(header, fmt.Sprintf("%s:t:num", t))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for r := 0; r < d.N(); r++ {
		k := 0
		for i := range d.Descriptors {
			c := &d.Descriptors[i]
			if c.IsDiscrete() {
				row[k] = c.Levels[int(c.Values[r])]
			} else {
				row[k] = strconv.FormatFloat(c.Values[r], 'g', 17, 64)
			}
			k++
		}
		for j := 0; j < d.Dy(); j++ {
			row[k] = strconv.FormatFloat(d.Y.At(r, j), 'g', 17, 64)
			k++
		}
		if len(row) == 1 && row[0] == "" {
			// csv.Writer writes a lone empty field as a blank line, which
			// csv.Reader skips; quote it so the row survives.
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	if len(records) < 1 {
		return nil, fmt.Errorf("dataset: csv has no header")
	}
	header := records[0]
	rows := records[1:]
	n := len(rows)

	type colSpec struct {
		name   string
		role   string
		kind   Kind
		column int
	}
	var specs []colSpec
	for i, h := range header {
		parts := strings.Split(h, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("dataset: header cell %q is not name:role:kind", h)
		}
		kind, err := parseKind(parts[2])
		if err != nil {
			return nil, err
		}
		if parts[1] != "d" && parts[1] != "t" {
			return nil, fmt.Errorf("dataset: header cell %q has unknown role %q", h, parts[1])
		}
		specs = append(specs, colSpec{name: parts[0], role: parts[1], kind: kind, column: i})
	}

	ds := &Dataset{}
	var targetCols []int
	for _, sp := range specs {
		if sp.role == "t" {
			ds.TargetNames = append(ds.TargetNames, sp.name)
			targetCols = append(targetCols, sp.column)
			continue
		}
		col := Column{Name: sp.name, Kind: sp.kind, Values: make([]float64, n)}
		if col.IsDiscrete() {
			levelIdx := map[string]int{}
			for r, rec := range rows {
				if sp.column >= len(rec) {
					return nil, fmt.Errorf("dataset: row %d too short", r+1)
				}
				cell := rec[sp.column]
				li, ok := levelIdx[cell]
				if !ok {
					li = len(col.Levels)
					levelIdx[cell] = li
					col.Levels = append(col.Levels, cell)
				}
				col.Values[r] = float64(li)
			}
			if sp.kind == Binary && len(col.Levels) > 2 {
				return nil, fmt.Errorf("dataset: binary column %q has %d levels",
					sp.name, len(col.Levels))
			}
			// A binary column whose data happens to contain one level still
			// needs two declared levels; synthesize the complement lazily.
			if sp.kind == Binary && len(col.Levels) == 1 {
				col.Levels = append(col.Levels, col.Levels[0]+"_other")
			}
		} else {
			for r, rec := range rows {
				if sp.column >= len(rec) {
					return nil, fmt.Errorf("dataset: row %d too short", r+1)
				}
				v, err := strconv.ParseFloat(rec[sp.column], 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: row %d column %q: %w", r+1, sp.name, err)
				}
				col.Values[r] = v
			}
		}
		ds.Descriptors = append(ds.Descriptors, col)
	}

	ds.Y = mat.NewDense(n, len(targetCols))
	for r, rec := range rows {
		for j, ci := range targetCols {
			v, err := strconv.ParseFloat(rec[ci], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d target %d: %w", r+1, j, err)
			}
			ds.Y.Set(r, j, v)
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}
