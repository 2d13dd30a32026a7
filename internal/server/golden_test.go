package server

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestRestoreGolden pins a scripted server session's belief state byte
// for byte, and requires a restore to reproduce it. For each dataset it
// runs three mine → commit iterations with spread, compares the
// GET /model and GET /history bodies with the checked-in goldens, hands
// the session off, restores it on a fresh Server over the same store,
// and requires the restored session to answer the same bytes. After a
// deliberate change to the results, regenerate the goldens with
//
//	go test ./internal/server -run TestRestoreGolden -update
//
// and say which changed and why.
func TestRestoreGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Same reason as the figure goldens: FMA fusion rounds differently.
		t.Skipf("golden sessions are recorded on amd64; %s may fuse multiply-add (FMA) and round differently", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name   string
		create CreateRequest
	}{
		{"synthetic", CreateRequest{Dataset: "synthetic", Depth: 2, Parallelism: 2}},
		{"water", CreateRequest{Dataset: "water", Depth: 2, Parallelism: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			base, stop := startServer(t, store)
			var info SessionInfo
			doJSON(t, "POST", base+"/sessions", tc.create, http.StatusCreated, &info)
			sess := "/sessions/" + info.ID
			for i := 0; i < 3; i++ {
				doJSON(t, "POST", base+sess+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
				doJSON(t, "POST", base+sess+"/commit", nil, http.StatusOK, nil)
			}
			bodies := map[string][]byte{}
			for _, route := range []string{"model", "history"} {
				bodies[route] = getBody(t, base+sess+"/"+route)
				path := filepath.Join("testdata", "golden", tc.name+"_"+route+".json")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, bodies[route], 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if !bytes.Equal(bodies[route], want) {
					t.Fatalf("GET %s differs from %s", route, path)
				}
			}
			doJSON(t, "POST", base+sess+"/handoff", nil, http.StatusOK, nil)
			stop()

			base, _ = startServer(t, store)
			for _, route := range []string{"model", "history"} {
				if got := getBody(t, base+sess+"/"+route); !bytes.Equal(got, bodies[route]) {
					t.Fatalf("restored GET %s differs from the handed-off session's", route)
				}
			}
		})
	}
}

// startServer serves a fresh Server over store and returns its API
// base URL and a stop function (also run at cleanup).
func startServer(t testing.TB, store Store) (base string, stop func()) {
	t.Helper()
	srv := NewWithOptions(Options{Store: store})
	ts := httptest.NewServer(srv.Handler())
	stop = func() {
		ts.Close()
		srv.Close()
	}
	t.Cleanup(stop)
	return ts.URL + APIPrefix, stop
}

// getBody GETs url, requires 200 and returns the body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}
