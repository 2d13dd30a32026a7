package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// specMetric is one metric of BENCHMARK.json. Bound is the share of the
// baseline median by which an end-to-end metric may worsen.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs run_seconds, end_to_end and per_layer", path)
	}
	return &s, nil
}

// compareMain implements `compare -a DIR_A -b DIR_B`: for every workload
// and end-to-end metric it prints both sides' median and quartiles over
// the untraced runs in each directory, and a verdict against the bound
// BENCHMARK.json fixes. The other numbers an untraced run prints, such
// as the latencies, have no bound there; they are shown as "unbounded"
// and not judged. It exits 1 unless every verdict is ok.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	dirA := fs.String("a", "", "directory of baseline run results")
	dirB := fs.String("b", "", "directory of candidate run results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dirA == "" || *dirB == "" {
		fmt.Fprintln(os.Stderr, "bench compare: -a and -b are required")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadRuns(*dirA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadRuns(*dirB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	code := 0
	const format = "%-18s %-17s %-5s %28s %28s %8s %6s  %s\n"
	fmt.Fprintf(out, format, "workload", "metric", "unit", "A median [q1 q3] n", "B median [q1 q3] n", "change", "bound", "verdict")
	row := func(w, name, bound, v string) {
		xa, xb := a[w][name], b[w][name]
		change := "-"
		if len(xa) > 0 && len(xb) > 0 && median(xa) != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(median(xb)/median(xa)-1))
		}
		fmt.Fprintf(out, format, w, name, unitOf(name), summary(xa), summary(xb), change, bound, v)
	}
	bounded := map[string]bool{}
	for _, m := range spec.EndToEnd {
		bounded[m.Name] = true
	}
	for _, w := range slices.Sorted(maps.Keys(a)) {
		for _, m := range spec.EndToEnd {
			v := verdict(a[w][m.Name], b[w][m.Name], m)
			if !strings.HasPrefix(v, "ok") {
				code = 1
			}
			row(w, m.Name, fmt.Sprintf("%.0f%%", 100*m.Bound), v)
		}
		for _, name := range slices.Sorted(maps.Keys(a[w])) {
			if !bounded[name] {
				row(w, name, "-", "unbounded")
			}
		}
	}
	return code
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "no runs"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(xs), q1, q3, len(xs))
}

// verdict compares candidate runs b with baseline runs a. The spread of
// a side is its interquartile range over its median. A metric is
// regressed when b's median is worse than a's by more than the bound;
// when either spread is wider than the bound the comparison cannot
// resolve that, unless every run of b is better than every run of a.
func verdict(a, b []float64, m specMetric) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved (missing runs)"
	}
	worse := func(x, y float64) float64 { // how much worse y is than x, as a share of x
		if m.Better == "higher" {
			return (x - y) / x
		}
		return (y - x) / x
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / median(xs)
	}
	if max(spread(a), spread(b)) > m.Bound {
		bestA, worstB := slices.Min(a), slices.Max(b)
		if m.Better == "higher" {
			bestA, worstB = slices.Max(a), slices.Min(b)
		}
		if worse(bestA, worstB) < 0 {
			return "ok (improved beyond the spread)"
		}
		return "unresolved (spread wider than bound)"
	}
	if worse(median(a), median(b)) > m.Bound {
		return "regressed"
	}
	return "ok"
}

// loadRuns reads the untraced run results in dir: workload → metric →
// one value per run.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		return nil, err
	}
	runs := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Kind != resultKind || r.Trace {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced run results", dir)
	}
	return runs, nil
}
