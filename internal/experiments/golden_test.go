package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// The checked-in goldens TestFiguresGolden compares: the transcript as
// `experiments` prints it, and every result field at full precision.
var (
	goldenFigures = filepath.Join("testdata", "golden", "figures.txt")
	goldenExact   = filepath.Join("testdata", "golden", "figures_exact.txt")
)

// renderFigures renders the figure drivers exactly as `experiments -run
// fig1,fig2,tableI,fig3,fig456,fig78,fig910` prints them, minus the
// `[… took …]` timing lines. The transcript rounds most floats to a few
// digits, so exact also lists every result with %+v, which prints each
// float in its shortest round-trip form: a one-ulp change shows there.
func renderFigures(t *testing.T) (transcript, exact []byte) {
	t.Helper()
	var out, all bytes.Buffer
	section := func(name, body string, result any) {
		fmt.Fprintf(&out, "\n================ %s ================\n%s", name, body)
		fmt.Fprintf(&all, "%s: %+v\n", name, result)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	fig1, err := Fig1Crime(gen.SeedCrime, false)
	check(err)
	section("Fig. 1", fig1.Render(), *fig1)
	fig2, err := Fig2Synthetic(gen.SeedSynthetic)
	check(err)
	section("Fig. 2", RenderFig2(fig2), fig2)
	tableI, err := TableISynthetic(gen.SeedSynthetic)
	check(err)
	section("Table I", RenderTableI(tableI), tableI)
	fig3, err := Fig3Noise(gen.SeedSynthetic, 3)
	check(err)
	section("Fig. 3", RenderFig3(fig3), fig3)
	fig456, err := Fig456Mammals(gen.SeedMammals, false)
	check(err)
	section("Figs. 4-6", RenderFig456(fig456), fig456)
	fig78, err := Fig78SocioEconomics(gen.SeedSocio)
	check(err)
	section("Figs. 7-8", RenderFig78(fig78), fig78)
	fig910, err := Fig910Water(gen.SeedWater)
	check(err)
	section("Figs. 9-10", fig910.Render(), *fig910)
	return out.Bytes(), all.Bytes()
}

// TestFiguresGolden pins the figure drivers' results byte for byte, at
// Parallelism 1 and 2, against checked-in goldens. The *Deterministic
// tests only compare one run of this binary with another; this test
// also fails when a change moves any result float by one ulp. After a
// deliberate change to the results, regenerate the goldens with
//
//	go test ./internal/experiments -run TestFiguresGolden -update
//
// and say which figures changed and why.
func TestFiguresGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler may fuse x*y+z into one FMA instruction on
		// arm64, ppc64le, s390x and riscv64, which rounds once instead of
		// twice, so the floats legitimately differ there.
		t.Skipf("golden figures are recorded on amd64; %s may fuse multiply-add (FMA) and round differently", runtime.GOARCH)
	}
	defer func(p int) { Parallelism = p }(Parallelism)
	for _, p := range []int{1, 2} {
		Parallelism = p
		transcript, exact := renderFigures(t)
		for _, g := range []struct {
			path string
			got  []byte
		}{{goldenFigures, transcript}, {goldenExact, exact}} {
			if *update && p == 1 {
				if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(g.path, g.got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(g.path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(g.got, want) {
				t.Errorf("Parallelism %d: output differs from %s at line %d\n%s",
					p, g.path, firstDiffLine(g.got, want), diffContext(g.got, want))
			}
		}
	}
}

// firstDiffLine returns the 1-based number of the first line on which a
// and b differ.
func firstDiffLine(a, b []byte) int {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return i + 1
		}
	}
	return len(la) + 1
}

// diffContext shows got and want around their first differing byte on
// their first differing line.
func diffContext(got, want []byte) string {
	i := firstDiffLine(got, want) - 1
	line := func(b []byte) string {
		if ls := strings.Split(string(b), "\n"); i < len(ls) {
			return ls[i]
		}
		return ""
	}
	g, w := line(got), line(want)
	at := 0
	for at < len(g) && at < len(w) && g[at] == w[at] {
		at++
	}
	window := func(s string) string {
		lo, hi := max(at-40, 0), min(at+40, len(s))
		return s[lo:hi]
	}
	return fmt.Sprintf("got:  …%s…\nwant: …%s…", window(g), window(w))
}
