package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestTestOnlyExports(t *testing.T) {
	for _, c := range []struct {
		fixture string
		want    []string // names the check must report, in order
	}{
		// lib.Helper is referenced only from lib_test.go.
		{"testonly", []string{"lib.Helper"}},
		// The same function with a non-test caller.
		{"used", nil},
		// lib.T.Stats is named in non-test code only where interface
		// Reader declares it, and called only from lib_test.go.
		{"iface", []string{"lib.T.Stats"}},
		// lib.T.Method is reached through the root's type T = lib.T,
		// and package fake is imported only by a _test.go file.
		{"alias", nil},
	} {
		hits, err := testOnlyExports(filepath.Join("testdata", c.fixture))
		if err != nil {
			t.Fatalf("%s: %v", c.fixture, err)
		}
		if len(hits) != len(c.want) {
			t.Fatalf("%s: got %d hit(s) %q, want %q", c.fixture, len(hits), hits, c.want)
		}
		for i, name := range c.want {
			if !strings.Contains(hits[i], " "+name+" is exported but only tests use it") {
				t.Errorf("%s: hit %q does not name %s", c.fixture, hits[i], name)
			}
		}
	}
}
