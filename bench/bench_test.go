package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// TestWorkloadsReportSpecMetrics runs every workload for a second,
// untraced and traced, and checks that the run prints each metric
// BENCHMARK.json lists for its mode with that metric's unit, that no
// operation failed and the oracle agreed with the server, and that the
// traced run writes its trace. It keeps BENCHMARK.json and the code from
// drifting apart.
func TestWorkloadsReportSpecMetrics(t *testing.T) {
	const specPath = "../BENCHMARK.json"
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var specNames, codeNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloads {
		codeNames = append(codeNames, w.name)
	}
	if !slices.Equal(specNames, codeNames) {
		t.Fatalf("BENCHMARK.json workloads %v, code runs %v", specNames, codeNames)
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			out := t.TempDir()
			var stdout bytes.Buffer
			res, err := run(config{
				workload: w.name, seed: 1, window: time.Second, trace: trace,
				dir: t.TempDir(), out: out, spec: specPath,
			}, &stdout)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, stdout.String())
			}
			if res.Failed != 0 || !res.Correct {
				t.Fatalf("%s trace=%v: %d of %d ops failed, correct=%v: %v", w.name, trace, res.Failed, res.Attempted, res.Correct, res.Errors)
			}
			for _, m := range want {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `\s`)
				if !line.Match(stdout.Bytes()) {
					t.Errorf("%s trace=%v: no line for %s in %s:\n%s", w.name, trace, m.Name, m.Unit, stdout.String())
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "mine_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "iters_per_s", Better: "higher", Bound: 0.1}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 102, 103, 104}
	for _, c := range []struct {
		a, b []float64
		m    specMetric
		want string
	}{
		{steady, []float64{104, 105, 106, 107, 108}, lower, "ok"},
		{steady, []float64{120, 121, 122, 123, 124}, lower, "regressed"},
		{steady, []float64{80, 81, 82, 83, 84}, higher, "regressed"},
		{steady, []float64{60, 90, 100, 110, 140}, lower, "unresolved (spread wider than bound)"},
		{[]float64{100, 130, 160, 190, 220}, []float64{60, 61, 62, 63, 64}, lower, "ok (improved beyond the spread)"},
		{[]float64{1, 2, 3, 4, 5}, []float64{1, 2, 3, 4, 5}, setup, "unresolved (spread wider than bound)"},
		{steady, nil, lower, "unresolved (missing runs)"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %q, want %q", c.a, c.b, c.m.Name, got, c.want)
		}
	}
}
