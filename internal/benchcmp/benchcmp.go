// Package benchcmp parses `go test -bench` output into a stable JSON
// form and compares two such runs — the engine behind cmd/benchdiff and
// the CI benchmark-regression gate, which pins the perf wins recorded
// in CHANGES.md against a checked-in baseline.
package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's metrics. Allocs/op is machine-independent
// and therefore the most reliable regression signal; ns/op varies with
// hardware and load, so comparisons give it a separate (looser)
// threshold.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	// HasAllocs distinguishes "zero allocations" from "allocations not
	// reported" (benchmarks without b.ReportAllocs).
	HasAllocs bool `json:"hasAllocs,omitempty"`
}

// Parse reads `go test -bench` text output. Benchmark names are
// normalized by stripping the trailing -GOMAXPROCS suffix so baselines
// transfer between machines with different core counts.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 {
			continue
		}
		e := Entry{Name: normalizeName(fields[0])}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line (e.g. "BenchmarkFoo 	 ... FAIL")
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = val
			case "B/op":
				e.BytesPerOp = val
			case "allocs/op":
				e.AllocsPerOp = val
				e.HasAllocs = true
			}
		}
		if e.NsPerOp > 0 {
			out = append(out, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchcmp: no benchmark results found")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func normalizeName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// WriteJSON emits the entries as indented JSON, sorted by name.
func WriteJSON(w io.Writer, entries []Entry) error {
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted)
}

// ReadJSON loads entries written by WriteJSON, keyed by name.
func ReadJSON(r io.Reader) (map[string]Entry, error) {
	var entries []Entry
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return nil, fmt.Errorf("benchcmp: %w", err)
	}
	out := make(map[string]Entry, len(entries))
	for _, e := range entries {
		out[e.Name] = e
	}
	return out, nil
}

// WriteMarkdown emits a before/after comparison of two runs as a
// GitHub-flavored markdown table — the human-readable artifact the CI
// bench job uploads next to the raw JSON. Benchmarks are listed by
// name; entries present on only one side are marked instead of
// silently dropped. B/op is shown beside allocs/op so byte-only wins
// are visible, but Compare does not gate on it.
func WriteMarkdown(w io.Writer, baseline, current map[string]Entry) error {
	names := map[string]bool{}
	for n := range baseline {
		names[n] = true
	}
	for n := range current {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	if _, err := fmt.Fprintf(w, "| Benchmark | ns/op (base) | ns/op (current) | Δ ns/op | allocs/op (base) | allocs/op (current) | B/op (base) | B/op (current) |\n|---|---:|---:|---:|---:|---:|---:|---:|\n"); err != nil {
		return err
	}
	fmtNs := func(e Entry, ok bool) string {
		if !ok {
			return "—"
		}
		return fmt.Sprintf("%.0f", e.NsPerOp)
	}
	fmtAllocs := func(e Entry, ok bool) string {
		if !ok || !e.HasAllocs {
			return "—"
		}
		return fmt.Sprintf("%.0f", e.AllocsPerOp)
	}
	// Bytes/op is reported together with allocs/op (b.ReportAllocs or
	// -benchmem), so HasAllocs marks it as measured.
	fmtBytes := func(e Entry, ok bool) string {
		if !ok || !e.HasAllocs {
			return "—"
		}
		return fmt.Sprintf("%.0f", e.BytesPerOp)
	}
	for _, n := range sorted {
		base, bok := baseline[n]
		cur, cok := current[n]
		delta := "—"
		if bok && cok && base.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cur.NsPerOp-base.NsPerOp)/base.NsPerOp)
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			n, fmtNs(base, bok), fmtNs(cur, cok), delta,
			fmtAllocs(base, bok), fmtAllocs(cur, cok),
			fmtBytes(base, bok), fmtBytes(cur, cok)); err != nil {
			return err
		}
	}
	return nil
}

// Regression is one metric of one benchmark exceeding its threshold.
type Regression struct {
	Name    string  `json:"name"`
	Metric  string  `json:"metric"` // "ns/op" or "allocs/op"
	Base    float64 `json:"base"`
	Current float64 `json:"current"`
	Ratio   float64 `json:"ratio"` // current/base
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.0f -> %.0f (%.2fx)",
		r.Name, r.Metric, r.Base, r.Current, r.Ratio)
}

// Result of a comparison.
type Result struct {
	Regressions []Regression `json:"regressions,omitempty"`
	// Missing lists tracked benchmarks absent from the current run — a
	// silently dropped benchmark must not pass the gate.
	Missing []string `json:"missing,omitempty"`
	// Added lists current benchmarks not in the baseline (informational:
	// refresh the baseline to start tracking them).
	Added []string `json:"added,omitempty"`
}

// OK reports whether the gate passes.
func (res *Result) OK() bool {
	return len(res.Regressions) == 0 && len(res.Missing) == 0
}

// Compare checks current against baseline. allocThreshold bounds the
// allowed relative growth of allocs/op (exact and machine-independent:
// keep it tight). nsThreshold bounds ns/op growth — wall time varies
// with hardware and benchtime, so it is typically looser; ns/op is only
// compared for benchmarks whose baseline is at least minNs (very short
// benchmarks are pure noise at -benchtime 1x).
func Compare(baseline, current map[string]Entry, allocThreshold, nsThreshold, minNs float64) *Result {
	res := &Result{}
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			res.Missing = append(res.Missing, name)
			continue
		}
		if base.HasAllocs && cur.HasAllocs {
			switch {
			case base.AllocsPerOp == 0 && cur.AllocsPerOp > 0:
				res.Regressions = append(res.Regressions, Regression{
					Name: name, Metric: "allocs/op",
					Base: 0, Current: cur.AllocsPerOp, Ratio: cur.AllocsPerOp,
				})
			case cur.AllocsPerOp > base.AllocsPerOp*(1+allocThreshold):
				res.Regressions = append(res.Regressions, Regression{
					Name: name, Metric: "allocs/op",
					Base: base.AllocsPerOp, Current: cur.AllocsPerOp,
					Ratio: cur.AllocsPerOp / base.AllocsPerOp,
				})
			}
		}
		if base.NsPerOp >= minNs && cur.NsPerOp > base.NsPerOp*(1+nsThreshold) {
			res.Regressions = append(res.Regressions, Regression{
				Name: name, Metric: "ns/op",
				Base: base.NsPerOp, Current: cur.NsPerOp,
				Ratio: cur.NsPerOp / base.NsPerOp,
			})
		}
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			res.Added = append(res.Added, name)
		}
	}
	sort.Strings(res.Added)
	return res
}
