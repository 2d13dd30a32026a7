package dataset

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/mat"
)

func sample() *Dataset {
	y := mat.NewDense(4, 2)
	copy(y.Data, []float64{0.1, 1, 0.2, 2, 0.3, 3, 0.4, 4})
	return &Dataset{
		Name: "sample",
		Descriptors: []Column{
			{Name: "age", Kind: Numeric, Values: []float64{10, 20, 30, 40}},
			{Name: "grade", Kind: Ordinal, Values: []float64{1, 3, 3, 5}},
			{Name: "region", Kind: Categorical, Values: []float64{0, 1, 0, 2},
				Levels: []string{"north", "south", "east"}},
			{Name: "urban", Kind: Binary, Values: []float64{0, 1, 1, 0},
				Levels: []string{"no", "yes"}},
		},
		TargetNames: []string{"crime", "income"},
		Y:           y,
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesBadLevel(t *testing.T) {
	ds := sample()
	ds.Descriptors[2].Values[0] = 9
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for out-of-range level index")
	}
}

func TestValidateCatchesNaNTarget(t *testing.T) {
	ds := sample()
	ds.Y.Set(0, 0, math.NaN())
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for NaN target")
	}
}

func TestValidateCatchesLengthMismatch(t *testing.T) {
	ds := sample()
	ds.Descriptors[0].Values = ds.Descriptors[0].Values[:2]
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for short column")
	}
}

// TestNoTargetColumnRejected: a CSV whose header names only description
// columns has nothing to mine; it must be refused at load time, not
// reach the scorer.
func TestNoTargetColumnRejected(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("x:d:num,c:d:cat\n1,a\n2,b\n3,a\n"))
	if err == nil || !strings.Contains(err.Error(), "no target column") {
		t.Fatalf("ReadCSV without a target column: err = %v", err)
	}
}

func TestAccessors(t *testing.T) {
	ds := sample()
	if ds.N() != 4 || ds.Dy() != 2 || ds.Dx() != 4 {
		t.Fatalf("dims = %d/%d/%d", ds.N(), ds.Dy(), ds.Dx())
	}
	if ds.Descriptor("region") == nil || ds.Descriptor("nope") != nil {
		t.Fatal("Descriptor lookup wrong")
	}
	if ds.TargetIndex("income") != 1 || ds.TargetIndex("nope") != -1 {
		t.Fatal("TargetIndex wrong")
	}
	col := ds.TargetColumn(0)
	if col[3] != 0.4 {
		t.Fatalf("TargetColumn = %v", col)
	}
	if ds.Descriptors[2].LevelIndex("east") != 2 ||
		ds.Descriptors[2].LevelIndex("west") != -1 {
		t.Fatal("LevelIndex wrong")
	}
	if got := ds.Descriptors[2].FormatValue(1); got != "south" {
		t.Fatalf("FormatValue = %q", got)
	}
}

func TestSplitPoints(t *testing.T) {
	// One scratch serves every column below, left dirty by the previous
	// one, exactly as a language build reuses it.
	var scratch []uint64
	c := &Column{Name: "x", Kind: Numeric,
		Values: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	sp := SplitPoints(c, 4, &scratch)
	if len(sp) != 4 {
		t.Fatalf("SplitPoints = %v", sp)
	}
	// 20/40/60/80th percentiles of 0..10 are 2, 4, 6, 8.
	want := []float64{2, 4, 6, 8}
	for i := range want {
		if math.Abs(sp[i]-want[i]) > 1e-12 {
			t.Fatalf("SplitPoints = %v, want %v", sp, want)
		}
	}
	// Constant column collapses to one split point.
	cc := &Column{Name: "c", Kind: Numeric, Values: []float64{5, 5, 5, 5}}
	if sp := SplitPoints(cc, 4, &scratch); len(sp) != 1 || sp[0] != 5 {
		t.Fatalf("constant column split points = %v", sp)
	}
	// Discrete columns have no split points.
	if sp := SplitPoints(&Column{Kind: Binary, Levels: []string{"a", "b"}}, 4, &scratch); sp != nil {
		t.Fatalf("binary split points = %v", sp)
	}
	// Longer and shorter columns after the constant one: the stale keys
	// of earlier columns must not leak into the selection, so each must
	// match a build from a fresh scratch bit for bit.
	long := &Column{Name: "l", Kind: Numeric, Values: make([]float64, 101)}
	for i := range long.Values {
		long.Values[i] = float64(100 - i) // descending 100..0
	}
	for _, col := range []*Column{long, cc, c, long} {
		got := SplitPoints(col, 4, &scratch)
		if want := SplitPoints(col, 4, new([]uint64)); !slices.Equal(got, want) {
			t.Fatalf("column %s with reused scratch: split points = %v, want %v", col.Name, got, want)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := sample()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.N() != ds.N() || got.Dx() != ds.Dx() || got.Dy() != ds.Dy() {
		t.Fatalf("round trip dims differ: %d/%d/%d", got.N(), got.Dx(), got.Dy())
	}
	for i := range ds.Descriptors {
		a, b := &ds.Descriptors[i], &got.Descriptors[i]
		if a.Name != b.Name || a.Kind != b.Kind {
			t.Fatalf("column %d header differs", i)
		}
		for r := range a.Values {
			if a.FormatValue(r) != b.FormatValue(r) {
				t.Fatalf("column %q row %d differs: %q vs %q",
					a.Name, r, a.FormatValue(r), b.FormatValue(r))
			}
		}
	}
	for i, v := range ds.Y.Data {
		if got.Y.Data[i] != v {
			t.Fatalf("target cell %d differs", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                       // no header
		"x\n1\n",                 // malformed header cell
		"x:z:num\n1\n",           // bad role
		"x:d:wat\n1\n",           // bad kind
		"x:d:num,y:t:num\nfoo,1", // non-numeric numeric cell
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
}
