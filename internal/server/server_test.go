package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/background"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status %d (want %d): %s",
			method, url, resp.StatusCode, wantStatus, msg.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
}

func TestFullInteractiveSession(t *testing.T) {
	ts := newTestServer(t)

	// Create a session over the synthetic data with Table I settings.
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Gamma: 0.5, Eta: 1, Depth: 3,
	}, http.StatusCreated, &info)
	if info.N != 620 || info.Dy != 2 {
		t.Fatalf("session info = %+v", info)
	}
	base := ts.URL + "/api/v1/sessions/" + info.ID

	// Mine with a spread preview.
	var mined MineResponse
	doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, &mined)
	if mined.Location == nil || mined.Location.SI < 10 {
		t.Fatalf("mined = %+v", mined)
	}
	if mined.Spread == nil || len(mined.Spread.W) != 2 {
		t.Fatalf("spread = %+v", mined.Spread)
	}
	firstSI := mined.Location.SI

	// Explain the pending pattern.
	var expl []map[string]any
	doJSON(t, "GET", base+"/explain", nil, http.StatusOK, &expl)
	if len(expl) != 2 {
		t.Fatalf("explanations = %d", len(expl))
	}

	// Commit, then mine again: the next pattern differs and scores lower.
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)
	var mined2 MineResponse
	doJSON(t, "POST", base+"/mine", nil, http.StatusOK, &mined2)
	if mined2.Location.Intention == mined.Location.Intention {
		t.Fatal("iterative mining returned the committed pattern again")
	}
	if mined2.Location.SI > firstSI {
		t.Fatalf("second pattern more interesting than first: %v > %v",
			mined2.Location.SI, firstSI)
	}

	// History holds the committed location + spread.
	var hist []PatternJSON
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, &hist)
	if len(hist) != 2 || hist[0].Kind != "location" || hist[1].Kind != "spread" {
		t.Fatalf("history = %+v", hist)
	}

	// List and delete.
	var sessions []SessionInfo
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &sessions)
	if len(sessions) != 1 || sessions[0].Iterations != 1 {
		t.Fatalf("sessions = %+v", sessions)
	}
	doJSON(t, "DELETE", base, nil, http.StatusOK, nil)
	doJSON(t, "DELETE", base, nil, http.StatusNotFound, nil)
}

func TestMinePreviewDoesNotCommit(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	// Mining twice without committing must return the SAME top pattern —
	// the spread preview must not leak into the session model.
	var a, b MineResponse
	doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, &a)
	doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, &b)
	if a.Location.Intention != b.Location.Intention || a.Location.SI != b.Location.SI {
		t.Fatalf("preview mutated the model: %+v vs %+v", a.Location, b.Location)
	}
}

func TestCreateFromCSV(t *testing.T) {
	ts := newTestServer(t)
	csv := "x:d:num,y:t:num\n1,0.5\n2,0.6\n3,2.5\n4,2.6\n5,2.4\n6,0.4\n"
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "csv", CSV: csv,
	}, http.StatusCreated, &info)
	if info.N != 6 || info.Dx != 1 || info.Dy != 1 {
		t.Fatalf("info = %+v", info)
	}
	var mined MineResponse
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+info.ID+"/mine", nil, http.StatusOK, &mined)
	if mined.Location == nil {
		t.Fatal("no pattern over CSV data")
	}
}

// TestCreateFromCSVWithoutTarget: a CSV with only description columns
// is refused at create with 400 bad_request instead of failing the
// first mine.
func TestCreateFromCSVWithoutTarget(t *testing.T) {
	ts := newTestServer(t)
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "csv", CSV: "x:d:num,c:d:cat\n1,a\n2,b\n3,a\n",
	}, http.StatusBadRequest, &env)
	if env.Error.Code != errBadRequest {
		t.Fatalf("create code %q, want %q", env.Error.Code, errBadRequest)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	// Unknown dataset.
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{Dataset: "nope"},
		http.StatusBadRequest, nil)
	// Bad JSON.
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json",
		strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}
	// Unknown session.
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/zzz/mine", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/sessions/zzz/history", nil, http.StatusNotFound, nil)
	// Commit without mining.
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{Dataset: "synthetic"},
		http.StatusCreated, &info)
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+info.ID+"/commit", nil,
		http.StatusConflict, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/sessions/"+info.ID+"/explain", nil,
		http.StatusConflict, nil)
}

func TestModelExportRestores(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID
	doJSON(t, "POST", base+"/mine", nil, http.StatusOK, nil)
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)

	resp, err := http.Get(base + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model export status = %d", resp.StatusCode)
	}
	m, err := background.LoadJSONExact(resp.Body)
	if err != nil {
		t.Fatalf("restoring exported model: %v", err)
	}
	if m.NumConstraints() != 1 || m.N() != 620 {
		t.Fatalf("restored model: %d constraints, n=%d", m.NumConstraints(), m.N())
	}
}

func TestConcurrentSessionsAreIsolated(t *testing.T) {
	ts := newTestServer(t)
	ids := make([]string, 3)
	for i := range ids {
		var info SessionInfo
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
			Dataset: "synthetic", Seed: int64(100 + i), Depth: 2,
		}, http.StatusCreated, &info)
		ids[i] = info.ID
	}
	// Commit in session 0 only; session 1 must still mine its original top.
	base0 := ts.URL + "/api/v1/sessions/" + ids[0]
	base1 := ts.URL + "/api/v1/sessions/" + ids[1]
	var before MineResponse
	doJSON(t, "POST", base1+"/mine", nil, http.StatusOK, &before)
	var m0 MineResponse
	doJSON(t, "POST", base0+"/mine", nil, http.StatusOK, &m0)
	doJSON(t, "POST", base0+"/commit", nil, http.StatusOK, nil)
	var after MineResponse
	doJSON(t, "POST", base1+"/mine", nil, http.StatusOK, &after)
	if before.Location.Intention != after.Location.Intention {
		t.Fatal("sessions are not isolated")
	}
	var sessions []SessionInfo
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &sessions)
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	iterSum := 0
	for _, s := range sessions {
		iterSum += s.Iterations
	}
	if iterSum != 1 {
		t.Fatalf("total iterations = %d, want 1", iterSum)
	}
}

func ExampleServer() {
	fmt.Println("see TestFullInteractiveSession for the API flow")
	// Output: see TestFullInteractiveSession for the API flow
}
