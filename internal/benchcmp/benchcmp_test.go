package benchcmp

import (
	"bytes"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/search
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBeamSerial-8                	       1	    979137 ns/op
BenchmarkBeamSynthetic             	       5	    465599 ns/op	  178416 B/op	    1814 allocs/op
BenchmarkZeroAlloc-16            	    1000	       123 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/search	0.008s
`

func TestParse(t *testing.T) {
	entries, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries: %+v", len(entries), entries)
	}
	byName := map[string]Entry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	// -8 / -16 GOMAXPROCS suffixes are stripped.
	serial, ok := byName["BenchmarkBeamSerial"]
	if !ok || serial.NsPerOp != 979137 || serial.HasAllocs {
		t.Fatalf("BeamSerial = %+v", serial)
	}
	syn := byName["BenchmarkBeamSynthetic"]
	if syn.NsPerOp != 465599 || syn.AllocsPerOp != 1814 || syn.BytesPerOp != 178416 || !syn.HasAllocs {
		t.Fatalf("BeamSynthetic = %+v", syn)
	}
	zero := byName["BenchmarkZeroAlloc"]
	if zero.AllocsPerOp != 0 || !zero.HasAllocs {
		t.Fatalf("ZeroAlloc = %+v", zero)
	}

	if _, err := Parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	entries, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("round trip lost entries: %d vs %d", len(got), len(entries))
	}
	if got["BenchmarkBeamSynthetic"].AllocsPerOp != 1814 {
		t.Fatalf("round trip = %+v", got["BenchmarkBeamSynthetic"])
	}
}

func TestCompare(t *testing.T) {
	base := map[string]Entry{
		"A": {Name: "A", NsPerOp: 1e6, BytesPerOp: 1e3, AllocsPerOp: 1000, HasAllocs: true},
		"B": {Name: "B", NsPerOp: 2e6, AllocsPerOp: 500, HasAllocs: true},
		"C": {Name: "C", NsPerOp: 100}, // too short for ns compare at minNs 1e6
		"D": {Name: "D", NsPerOp: 1e6, AllocsPerOp: 0, HasAllocs: true},
		"E": {Name: "E", NsPerOp: 1e6},
	}
	cur := map[string]Entry{
		// Within thresholds; the tenfold B/op growth is reported, not gated.
		"A": {Name: "A", NsPerOp: 1.1e6, BytesPerOp: 1e4, AllocsPerOp: 1100, HasAllocs: true},
		"B": {Name: "B", NsPerOp: 2e6, AllocsPerOp: 800, HasAllocs: true}, // allocs +60%
		"C": {Name: "C", NsPerOp: 1e4},                                    // 100x but under minNs
		"D": {Name: "D", NsPerOp: 1e6, AllocsPerOp: 3, HasAllocs: true},   // lost zero-alloc
		// E missing
		"F": {Name: "F", NsPerOp: 5},
	}
	res := Compare(base, cur, 0.30, 1.0, 1e6)
	if res.OK() {
		t.Fatal("expected failures")
	}
	var metrics []string
	for _, r := range res.Regressions {
		metrics = append(metrics, r.Name+":"+r.Metric)
	}
	want := "B:allocs/op D:allocs/op"
	if got := strings.Join(metrics, " "); got != want {
		t.Fatalf("regressions = %q, want %q", got, want)
	}
	if len(res.Missing) != 1 || res.Missing[0] != "E" {
		t.Fatalf("missing = %v", res.Missing)
	}
	if len(res.Added) != 1 || res.Added[0] != "F" {
		t.Fatalf("added = %v", res.Added)
	}

	// ns regression past the loose threshold is caught.
	cur["A"] = Entry{Name: "A", NsPerOp: 2.5e6, AllocsPerOp: 1000, HasAllocs: true}
	res = Compare(base, cur, 0.30, 1.0, 1e6)
	found := false
	for _, r := range res.Regressions {
		if r.Name == "A" && r.Metric == "ns/op" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ns regression not caught: %+v", res.Regressions)
	}

	// Identical runs pass.
	res = Compare(base, base, 0.30, 1.0, 1e6)
	if !res.OK() || len(res.Added) != 0 {
		t.Fatalf("self-compare failed: %+v", res)
	}
}

func TestWriteMarkdown(t *testing.T) {
	base := map[string]Entry{
		"A":       {Name: "A", NsPerOp: 1e6, BytesPerOp: 4419302, AllocsPerOp: 1000, HasAllocs: true},
		"Removed": {Name: "Removed", NsPerOp: 5e5},
	}
	cur := map[string]Entry{
		"A":     {Name: "A", NsPerOp: 5e5, BytesPerOp: 386176, AllocsPerOp: 10, HasAllocs: true},
		"Added": {Name: "Added", NsPerOp: 2e6},
	}
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, base, cur); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + separator + three benchmarks, sorted by name.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "| A ") || !strings.Contains(lines[2], "-50.0%") {
		t.Fatalf("A row wrong: %s", lines[2])
	}
	if !strings.HasPrefix(lines[3], "| Added ") || !strings.Contains(lines[3], "| — |") {
		t.Fatalf("Added row must mark the missing baseline side: %s", lines[3])
	}
	if !strings.HasPrefix(lines[4], "| Removed ") {
		t.Fatalf("Removed row missing: %s", lines[4])
	}
	if !strings.Contains(lines[0], "| B/op (base) | B/op (current) |") {
		t.Fatalf("header lacks the B/op columns: %s", lines[0])
	}
	for i, l := range lines {
		if strings.Count(l, "|") != 9 {
			t.Fatalf("line %d has wrong column count: %s", i, l)
		}
	}
	// B/op follows allocs/op on both sides.
	if !strings.HasSuffix(lines[2], "| 1000 | 10 | 4419302 | 386176 |") {
		t.Fatalf("A row must end with allocs/op then B/op, base and current: %s", lines[2])
	}
	// Benchmarks without b.ReportAllocs report neither allocs nor bytes.
	if !strings.HasSuffix(lines[4], "| — | — | — | — |") {
		t.Fatalf("Removed row must mark unreported allocs and bytes: %s", lines[4])
	}
}
