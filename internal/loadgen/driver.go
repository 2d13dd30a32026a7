// The harness every scenario shares: one /api/v1 call, one
// create → [mine → commit]×k session loop, one commit stream under a
// kill fuse, one check of crash survivors against a no-crash control
// replay, and the sisd-server subprocesses they run against.

package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// driver is the harness's /api/v1 client for one server or router.
type driver struct {
	client *http.Client
	base   string
}

// call sends one request to path under /api/v1, with body (when
// non-nil) JSON-encoded, and decodes a 2xx answer into out (when
// non-nil). It returns the HTTP status and, for any other status, the
// error envelope's code and an error reading
// "METHOD PATH: HTTP <status> <code>: <message>".
func (d driver) call(method, path string, body, out any) (int, string, error) {
	path = server.APIPrefix + path
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, "", err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode >= 300 {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		_ = json.Unmarshal(raw, &env)
		return resp.StatusCode, env.Error.Code,
			fmt.Errorf("%s %s: HTTP %d %s: %s", method, path, resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, "", err
		}
	}
	return resp.StatusCode, "", nil
}

type jobStatusView struct {
	ID     string              `json:"id"`
	Status string              `json:"status"`
	Error  string              `json:"error"`
	Result server.MineResponse `json:"result"`
}

// mine runs one mine on session id: synchronously, or with req.Async
// submitted as a job and polled until it finishes.
func (d driver) mine(id string, req server.MineRequest) (server.MineResponse, error) {
	var m server.MineResponse
	if !req.Async {
		_, _, err := d.call("POST", "/sessions/"+id+"/mine", req, &m)
		return m, err
	}
	var job jobStatusView
	if _, _, err := d.call("POST", "/sessions/"+id+"/mine", req, &job); err != nil {
		return m, err
	}
	for deadline := time.Now().Add(5 * time.Minute); time.Now().Before(deadline); {
		if _, _, err := d.call("GET", "/jobs/"+job.ID+"?waitMs=1000", nil, &job); err != nil {
			return m, err
		}
		switch job.Status {
		case "done":
			return job.Result, nil
		case "failed", "cancelled":
			return m, fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
		}
	}
	return m, fmt.Errorf("job %s: poll deadline exceeded", job.ID)
}

// session is the harness's record of one session: the create request
// that built it, its id and home shard once created, and how many
// commits were acknowledged. A restored history may be one longer than
// commits: a commit whose Put landed but whose answer a kill swallowed.
type session struct {
	id, shard string
	create    server.CreateRequest
	commits   int
}

// newFleet returns n sessions, not yet created, over dataset with the
// given search bounds; session u is seeded seed0+u.
func newFleet(n int, dataset string, seed0 int64, depth, beam int) []*session {
	fleet := make([]*session, n)
	for u := range fleet {
		fleet[u] = &session{create: server.CreateRequest{
			Dataset: dataset, Seed: seed0 + int64(u), Depth: depth, BeamWidth: beam,
		}}
	}
	return fleet
}

// commitAnswer is the part of a commit's answer the scenarios check.
type commitAnswer struct {
	Persisted   bool   `json:"persisted"`
	Persistence string `json:"persistence"`
}

// loopHooks are a scenario's view of a session loop; any may be nil.
type loopHooks struct {
	// call sees each create, mine and commit call: its start and error.
	call func(op string, start time.Time, err error)
	// mined sees each answered mine; false skips its commit.
	mined func(m server.MineResponse) bool
	// committed sees each acknowledged commit; an error ends the loop.
	committed func(c commitAnswer) error
}

// loop is the one session driver. It creates s unless s already has an
// id, then runs up to iters mine → commit rounds, each mine sent as
// req, and returns the first error.
func (d driver) loop(s *session, iters int, req server.MineRequest, h loopHooks) error {
	done := func(op string, start time.Time, err error) error {
		if h.call != nil {
			h.call(op, start, err)
		}
		return err
	}
	if s.id == "" {
		var info server.SessionInfo
		start := time.Now()
		_, _, err := d.call("POST", "/sessions", s.create, &info)
		if done("create", start, err) != nil {
			return err
		}
		s.id, s.shard = info.ID, info.Shard
	}
	for i := 0; i < iters; i++ {
		start := time.Now()
		m, err := d.mine(s.id, req)
		if done("mine", start, err) != nil {
			return err
		}
		if h.mined != nil && !h.mined(m) {
			continue
		}
		var c commitAnswer
		start = time.Now()
		_, _, err = d.call("POST", "/sessions/"+s.id+"/commit", nil, &c)
		if done("commit", start, err) != nil {
			return err
		}
		s.commits++
		if h.committed != nil {
			if err := h.committed(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitStream runs every session's loop at once, creating the sessions
// that have no id yet, under a kill fuse: once the first commit is
// acknowledged it calls arm (when set), waits killAfter and calls kill,
// so the kill lands while other commits and Puts are in flight. A loop
// that fails is racing the kill; the survivor check judges the result.
// It returns the sessions whose create was acknowledged and the number
// of acknowledged commits.
func commitStream(d driver, fleet []*session, iters int, killAfter time.Duration, arm func() error, kill func()) ([]*session, int, error) {
	first := make(chan struct{})
	var once sync.Once
	fuse := loopHooks{committed: func(commitAnswer) error {
		once.Do(func() { close(first) })
		return nil
	}}
	var wg sync.WaitGroup
	for _, s := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = d.loop(s, iters, server.MineRequest{}, fuse)
		}()
	}
	var err error
	select {
	case <-first:
		if arm != nil {
			err = arm()
		}
		if err == nil {
			time.Sleep(killAfter)
		}
	case <-time.After(2 * time.Minute):
		err = fmt.Errorf("no commit landed within 2m; cannot crash mid-stream")
	}
	kill()
	wg.Wait()
	var created []*session
	commits := 0
	for _, s := range fleet {
		if s.id != "" {
			created = append(created, s)
			commits += s.commits
		}
	}
	return created, commits, err
}

// serverProc is a running sisd-server subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	base string
}

// startServer launches bin over storeDir on an ephemeral port and
// parses the actual address from the "listening on" log line. Extra
// args (e.g. -shard-id for cluster shards) are appended verbatim.
func startServer(bin, storeDir string, extra ...string) (*serverProc, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-store-dir", storeDir,
		"-drain-timeout", "10s"}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &serverProc{cmd: cmd, base: "http://" + addr}, nil
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("sisd-server did not report a listen address")
	}
}

func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// stop shuts the server down gracefully (SIGTERM → drain → exit).
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("chaos: graceful shutdown timed out")
	}
}

// serveLocal serves h on an ephemeral loopback port and returns the
// server and its base URL (net/http/httptest is test-only by
// convention; this keeps the harness importable from main packages).
func serveLocal(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), nil
}

// checkSurvivors compares each session d serves after a crash with a
// no-crash control: an in-process server that replays the session's
// create and as many commits as the survivor's history holds. A
// survivor is restored when its history answers, and identical when
// that history is no shorter than the acknowledged commits and no
// longer than the iters attempted, and its next mine, its history and
// its model export are byte-identical to the replay's.
func checkSurvivors(d driver, survivors []*session, iters int) (restored, identical int, mismatches []string, err error) {
	api := server.New()
	defer api.Close()
	srv, base, err := serveLocal(api.Handler())
	if err != nil {
		return 0, 0, nil, fmt.Errorf("control server: %w", err)
	}
	defer srv.Close()
	ctrl := driver{client: d.client, base: base}
	for _, s := range survivors {
		mismatch := func(format string, args ...any) {
			mismatches = append(mismatches, s.id+": "+fmt.Sprintf(format, args...))
		}
		var hist []server.PatternJSON
		if _, _, err := d.call("GET", "/sessions/"+s.id+"/history", nil, &hist); err != nil {
			mismatch("restore failed: %v", err)
			continue
		}
		restored++
		if len(hist) < s.commits || len(hist) > iters {
			mismatch("restored history %d outside [%d,%d]", len(hist), s.commits, iters)
			continue
		}
		got, err := observe(d, s.id)
		if err != nil {
			mismatch("after restore: %v", err)
			continue
		}
		replay := &session{create: s.create}
		var want observation
		if err = ctrl.loop(replay, len(hist), server.MineRequest{}, loopHooks{}); err == nil {
			want, err = observe(ctrl, replay.id)
		}
		switch {
		case err != nil:
			mismatch("control replay: %v", err)
		case !bytes.Equal(got.mine, want.mine):
			mismatch("mine diverged from control")
		case !bytes.Equal(got.history, want.history):
			mismatch("history diverged from control")
		case !bytes.Equal(got.model, want.model):
			mismatch("model export diverged from control")
		default:
			identical++
		}
	}
	return restored, identical, mismatches, nil
}

// observation is what the survivor check compares: the session's next
// mine without its scheduling-dependent fields, its history and its
// model export.
type observation struct {
	mine           []byte
	history, model json.RawMessage
}

func observe(d driver, id string) (observation, error) {
	var o observation
	var m server.MineResponse
	if _, _, err := d.call("POST", "/sessions/"+id+"/mine", server.MineRequest{}, &m); err != nil {
		return o, err
	}
	// The job id and the SI-bound pruning diagnostics vary with goroutine
	// interleaving (DESIGN.md §6); everything else must be byte-identical.
	m.Job, m.BoundEvals, m.Pruned = "", 0, 0
	o.mine, _ = json.Marshal(&m)
	if _, _, err := d.call("GET", "/sessions/"+id+"/history", nil, &o.history); err != nil {
		return o, err
	}
	_, _, err := d.call("GET", "/sessions/"+id+"/model", nil, &o.model)
	return o, err
}
