package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// goldenTranscripts are the mining transcripts pinned byte for byte:
// location and spread search, deeper beams, the pair-sparse spread
// constraint and a 16-target dataset. Mammals is left out: it takes
// about 2 s a run, and the experiments fig456 golden pins it already.
var goldenTranscripts = []struct{ name, args string }{
	{"synthetic", "-builtin synthetic -iters 3 -spread"},
	{"crime", "-builtin crime -iters 4 -depth 3"},
	{"socio", "-builtin socio -iters 2 -spread -pair-sparse"},
	{"water", "-builtin water -iters 2 -depth 2 -spread"},
}

// TestTranscriptsGolden runs each transcript at -parallel 1 and 2 and
// compares its output with testdata/golden/<name>.txt. After a
// deliberate change to results, rerun with -update and say which
// transcripts moved and why.
func TestTranscriptsGolden(t *testing.T) {
	if args := os.Getenv("SISD_TEST_MAIN"); args != "" {
		os.Args = append([]string{"sisd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse x*y+z into one FMA instruction,
		// which rounds once instead of twice.
		t.Skipf("golden transcripts are recorded on amd64; %s may fuse multiply-add (FMA) and round differently", runtime.GOARCH)
	}
	for _, tr := range goldenTranscripts {
		path := filepath.Join("testdata", "golden", tr.name+".txt")
		for _, p := range []string{"1", "2"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestTranscriptsGolden$")
			cmd.Env = append(os.Environ(), "SISD_TEST_MAIN="+tr.args+" -parallel "+p)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("sisd %s -parallel %s: %v\n%s", tr.args, p, err, stderr.Bytes())
			}
			if *update && p == "1" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sisd %s -parallel %s differs from %s:\n--- got\n%s--- want\n%s", tr.args, p, path, got, want)
			}
		}
	}
}
