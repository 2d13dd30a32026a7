package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMeanVariance(t *testing.T) {
	cases := []struct {
		col            []float64
		mean, variance float64
	}{
		{[]float64{1, 2, 3, 4}, 2.5, 1.25},
		{[]float64{5, 5, 5}, 5, 0},
		{[]float64{-2}, -2, 0},
	}
	for _, c := range cases {
		mean, variance := meanVariance(c.col)
		if mean != c.mean || variance != c.variance {
			t.Errorf("meanVariance(%v) = %v, %v; want %v, %v", c.col, mean, variance, c.mean, c.variance)
		}
	}
}

// TestOptimalRejectsConstantTarget runs the command on a single constant
// target with -optimal: it must exit with an error message, not panic
// inside the branch-and-bound.
func TestOptimalRejectsConstantTarget(t *testing.T) {
	if args := os.Getenv("SISD_TEST_MAIN"); args != "" {
		os.Args = append([]string{"sisd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	path := filepath.Join(t.TempDir(), "const.csv")
	if err := os.WriteFile(path, []byte("x:d:num,y:t:num\n1,5\n2,5\n3,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOptimalRejectsConstantTarget$")
	cmd.Env = append(os.Environ(), "SISD_TEST_MAIN=-data "+path+" -optimal")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("sisd -optimal on a constant target succeeded:\n%s", out)
	}
	if strings.Contains(string(out), "panic") || !strings.Contains(string(out), "positive variance") {
		t.Fatalf("want a positive-variance error, got:\n%s", out)
	}
}

// TestNegativeGammaRejected: a negative γ makes the description length
// shrink as conditions are added (and reach zero), so the command must
// refuse it with exit status 1 instead of mining SI=+Inf patterns.
func TestNegativeGammaRejected(t *testing.T) {
	if args := os.Getenv("SISD_TEST_MAIN"); args != "" {
		os.Args = append([]string{"sisd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeGammaRejected$")
	cmd.Env = append(os.Environ(), "SISD_TEST_MAIN=-builtin crime -gamma -0.5 -iters 1 -depth 2")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("sisd -gamma -0.5: %v, want exit status 1:\n%s", err, out)
	}
	if strings.Contains(string(out), "panic") || !strings.Contains(string(out), "gamma") {
		t.Fatalf("want a gamma error, got:\n%s", out)
	}
}

// TestNoTargetColumnRejected: a CSV with only description columns must
// make the command exit with status 1 and an error, not panic on the
// first mine.
func TestNoTargetColumnRejected(t *testing.T) {
	if args := os.Getenv("SISD_TEST_MAIN"); args != "" {
		os.Args = append([]string{"sisd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	path := filepath.Join(t.TempDir(), "notarget.csv")
	if err := os.WriteFile(path, []byte("x:d:num,c:d:cat\n1,a\n2,b\n3,a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNoTargetColumnRejected$")
	cmd.Env = append(os.Environ(), "SISD_TEST_MAIN=-data "+path+" -iters 1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("sisd on a CSV without targets: %v, want exit status 1:\n%s", err, out)
	}
	if strings.Contains(string(out), "panic") || !strings.Contains(string(out), "no target column") {
		t.Fatalf("want a no-target-column error, got:\n%s", out)
	}
}
