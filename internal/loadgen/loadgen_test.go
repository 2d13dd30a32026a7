package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

// TestLoad32Users is the serving-subsystem acceptance check: 32
// concurrent simulated users complete full mine/commit loops against an
// in-process server with zero failed jobs, and the report carries
// latency percentiles and throughput.
func TestLoad32Users(t *testing.T) {
	srv := server.NewWithOptions(server.Options{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rep, err := Run(Config{
		BaseURL:    ts.URL,
		Users:      32,
		Iterations: 2,
		Dataset:    "synthetic",
		Depth:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedJobs != 0 {
		t.Fatalf("failed jobs: %d, errors: %v", rep.FailedJobs, rep.Errors)
	}
	if rep.Jobs != 32*2 {
		t.Fatalf("jobs = %d, want 64", rep.Jobs)
	}
	mine, ok := rep.Ops["mine"]
	if !ok || mine.Count != 64 || mine.P50MS <= 0 || mine.P95MS < mine.P50MS ||
		mine.P99MS < mine.P95MS || mine.MaxMS < mine.P99MS {
		t.Fatalf("mine stats malformed: %+v", mine)
	}
	if rep.JobsPerSec <= 0 {
		t.Fatalf("jobsPerSec = %v", rep.JobsPerSec)
	}
	for _, op := range []string{"create", "commit", "delete"} {
		st := rep.Ops[op]
		if st.Failed != 0 || st.Count == 0 {
			t.Fatalf("%s stats: %+v (errors %v)", op, st, rep.Errors)
		}
	}
}

// TestLoadAsyncMode drives the job-polling path.
func TestLoadAsyncMode(t *testing.T) {
	srv := server.NewWithOptions(server.Options{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rep, err := Run(Config{
		BaseURL:    ts.URL,
		Users:      8,
		Iterations: 1,
		Dataset:    "synthetic",
		Depth:      2,
		Async:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedJobs != 0 || rep.Jobs != 8 {
		t.Fatalf("async run: %d jobs, %d failed, errors %v",
			rep.Jobs, rep.FailedJobs, rep.Errors)
	}
}

// TestLoadReportsErrorEnvelope: a failed call is reported with the
// status, the envelope's code and its message.
func TestLoadReportsErrorEnvelope(t *testing.T) {
	srv := server.New()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rep, err := Run(Config{BaseURL: ts.URL, Users: 1, Dataset: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Ops["create"]; st.Failed != 1 || len(rep.Errors) != 1 {
		t.Fatalf("create stats %+v, errors %v", st, rep.Errors)
	}
	if got := rep.Errors[0]; !strings.Contains(got, "HTTP 400 bad_request: unknown dataset") {
		t.Fatalf("error %q lacks the envelope's status, code and message", got)
	}
}

// TestLoadNullLocationAccounting: a mine that answers a null location
// is never committed; it counts as a completed job when its status is
// timeout (the budget expired before anything scored) and as a failed
// job otherwise.
func TestLoadNullLocationAccounting(t *testing.T) {
	var mines, commits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == "POST" && r.URL.Path == "/api/v1/sessions":
			fmt.Fprint(w, `{"id":"s1"}`)
		case r.URL.Path == "/api/v1/sessions/s1/mine":
			if mines.Add(1) <= 2 {
				fmt.Fprint(w, `{"location":null,"status":"timeout","timedOut":true}`)
			} else {
				fmt.Fprint(w, `{"location":null,"status":"complete"}`)
			}
		case r.URL.Path == "/api/v1/sessions/s1/commit":
			commits.Add(1)
			fmt.Fprint(w, `{}`)
		case r.Method == "DELETE" && r.URL.Path == "/api/v1/sessions/s1":
			w.WriteHeader(http.StatusNoContent)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	rep, err := Run(Config{BaseURL: ts.URL, Users: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 2 || rep.FailedJobs != 1 {
		t.Fatalf("jobs %d, failed %d; want 2 completed (timeout nulls) and 1 failed (other null)", rep.Jobs, rep.FailedJobs)
	}
	if st := rep.Ops["mine"]; st.Count != 3 || st.Failed != 1 {
		t.Fatalf("mine stats %+v", st)
	}
	if n := commits.Load(); n != 0 {
		t.Fatalf("%d commits of a null location", n)
	}
	if st := rep.Ops["delete"]; st.Count != 1 || st.Failed != 0 {
		t.Fatalf("delete stats %+v (errors %v)", st, rep.Errors)
	}
}
