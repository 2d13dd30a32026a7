// Package jobs provides the asynchronous execution substrate of the
// serving layer: a bounded worker pool running named jobs with an
// explicit lifecycle (queued → running → done/failed/cancelled),
// per-job progress notes, deadline propagation via context, long-poll
// waiting, and retention-bounded bookkeeping of finished jobs.
//
// The HTTP server enqueues each mine call as a job so request handlers
// never block on a search budget: clients either wait (long-poll) or
// poll the job id. The pool bounds concurrent searches to a fixed
// worker count, so a burst of expensive mines degrades into queueing
// latency instead of unbounded goroutines competing for every core.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Status is a job lifecycle state.
type Status string

// Job lifecycle states. Terminal states are Done, Failed and Cancelled.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity — the server translates it to 503 so clients back off
// instead of piling goroutines onto an overloaded pool.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: pool closed")

// ErrDraining is returned by Submit after Drain began: the pool is
// finishing in-flight work but accepting nothing new.
var ErrDraining = errors.New("jobs: pool draining")

// Fn is the work a job performs. ctx carries the job's deadline (when
// one was set) and is cancelled by Cancel; long searches should pass
// the deadline into their own budget mechanism and check ctx between
// phases. progress publishes a human-readable note visible in the
// job's Info while it runs. The returned value becomes Info.Result.
type Fn func(ctx context.Context, progress func(note string)) (any, error)

// Job is one unit of asynchronous work. All fields are managed by the
// pool; read them through Info.
type Job struct {
	id    string
	label string

	mu       sync.Mutex
	status   Status
	note     string
	result   any
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time

	timeout time.Duration
	cancel  context.CancelFunc // non-nil while running
	fn      Fn
	done    chan struct{} // closed on reaching a terminal state

	// cancelReq is closed the moment cancellation is requested —
	// before the Fn has noticed its context and unwound. Watchers that
	// hold resources on a job's behalf (the server's session mine
	// slots) select on it to release immediately instead of waiting
	// out the Fn's next cancellation check.
	cancelReq    chan struct{}
	cancelOnce   bool // cancelReq closed; guarded by mu
	modelVersion uint64
}

// Info is the externally visible snapshot of a job, JSON-ready.
type Info struct {
	ID       string     `json:"id"`
	Label    string     `json:"label,omitempty"`
	Status   Status     `json:"status"`
	Note     string     `json:"note,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// DurationMS is wall time from start to finish (or to now while
	// running), in milliseconds.
	DurationMS int64 `json:"durationMs,omitempty"`
	// ModelVersion is the background-model version the job ran against,
	// when the job recorded one (see RecordModelVersion); 0 otherwise.
	ModelVersion uint64 `json:"modelVersion,omitempty"`
	// Result is the job's return value once Status is done.
	Result any `json:"result,omitempty"`
}

func (j *Job) snapshot() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	inf := Info{
		ID:           j.id,
		Label:        j.label,
		Status:       j.status,
		Note:         j.note,
		Error:        j.errMsg,
		Created:      j.created,
		ModelVersion: j.modelVersion,
		Result:       j.result,
	}
	if !j.started.IsZero() {
		s := j.started
		inf.Started = &s
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		inf.DurationMS = end.Sub(j.started).Milliseconds()
	}
	if !j.finished.IsZero() {
		f := j.finished
		inf.Finished = &f
	}
	return inf
}

// ID returns the job's pool-unique identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// CancelRequested returns a channel closed as soon as cancellation is
// requested (Cancel or pool Close), which for a running job is before
// the Fn notices its cancelled context and the job reaches a terminal
// state. A queued job cancelled before starting closes Done and this
// channel together.
func (j *Job) CancelRequested() <-chan struct{} { return j.cancelReq }

// requestCancel closes cancelReq exactly once.
func (j *Job) requestCancel() {
	j.mu.Lock()
	if !j.cancelOnce {
		j.cancelOnce = true
		close(j.cancelReq)
	}
	j.mu.Unlock()
}

// ctxKey carries the *Job through its Fn's context.
type ctxKey struct{}

// RecordModelVersion annotates the job running under ctx with the
// background-model version it is reading, surfacing it in the job's
// Info (and the serving layer's job responses). No-op when ctx does
// not belong to a pool job.
func RecordModelVersion(ctx context.Context, version uint64) {
	j, _ := ctx.Value(ctxKey{}).(*Job)
	if j == nil {
		return
	}
	j.mu.Lock()
	j.modelVersion = version
	j.mu.Unlock()
}

// Pool runs submitted jobs on a fixed set of workers.
type Pool struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for List and retention sweeps
	nextID   int
	closed   bool
	draining bool

	queue     chan *Job
	wg        sync.WaitGroup
	workers   int
	queueCap  int
	retention time.Duration // how long finished jobs stay visible
	maxDone   int           // cap on retained finished jobs
}

// Stats is a point-in-time load snapshot of the pool — the saturation
// signal readiness probes consume: Queued == QueueCap means the next
// Submit would be rejected with ErrQueueFull.
type Stats struct {
	Workers  int  `json:"workers"`
	QueueCap int  `json:"queueCap"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Draining bool `json:"draining,omitempty"`
}

// Saturated reports whether the pending queue is full (Submit would
// return ErrQueueFull).
func (s Stats) Saturated() bool { return s.Queued >= s.QueueCap }

// Stats reports current pool load.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	st := Stats{
		Workers:  p.workers,
		QueueCap: p.queueCap,
		Draining: p.draining,
	}
	for _, j := range p.jobs {
		j.mu.Lock()
		switch j.status {
		case StatusQueued:
			st.Queued++
		case StatusRunning:
			st.Running++
		}
		j.mu.Unlock()
	}
	p.mu.Unlock()
	return st
}

// Option configures a Pool.
type Option func(*Pool)

// WithRetention bounds how long finished jobs stay queryable (default
// 10 minutes) and how many are retained regardless of age (default
// 1024). Whichever bound hits first evicts the oldest finished jobs.
func WithRetention(age time.Duration, maxFinished int) Option {
	return func(p *Pool) {
		if age > 0 {
			p.retention = age
		}
		if maxFinished > 0 {
			p.maxDone = maxFinished
		}
	}
}

// NewPool starts a pool with the given number of workers and pending
// queue capacity. Non-positive arguments get defaults (2 workers,
// queue 64).
func NewPool(workers, queueCap int, opts ...Option) *Pool {
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	p := &Pool{
		jobs:      map[string]*Job{},
		queue:     make(chan *Job, queueCap),
		workers:   workers,
		queueCap:  queueCap,
		retention: 10 * time.Minute,
		maxDone:   1024,
	}
	for _, o := range opts {
		o(p)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Close stops accepting jobs, cancels everything queued, and waits for
// running jobs to finish (their contexts are cancelled first, so a
// deadline-aware Fn returns promptly).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	// Cancel queued jobs before closing the channel: workers skip
	// terminal jobs, so nothing still pending ever starts. Running jobs
	// get their contexts cancelled and unwind at their own pace.
	var queued, running []*Job
	var cancels []context.CancelFunc
	for _, j := range p.jobs {
		j.mu.Lock()
		switch j.status {
		case StatusQueued:
			queued = append(queued, j)
		case StatusRunning:
			running = append(running, j)
			if j.cancel != nil {
				cancels = append(cancels, j.cancel)
			}
		}
		j.mu.Unlock()
	}
	p.mu.Unlock()
	for _, j := range queued {
		j.requestCancel()
		j.finish(StatusCancelled, nil, "pool closed")
	}
	for _, j := range running {
		j.requestCancel()
	}
	for _, c := range cancels {
		c()
	}
	close(p.queue)
	p.wg.Wait()
}

// Submit enqueues fn as a new job. timeout > 0 bounds the job's run
// time via its context deadline (measured from start, not submission).
// Returns ErrQueueFull when the pending queue is at capacity.
func (p *Pool) Submit(label string, timeout time.Duration, fn Fn) (*Job, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if p.draining {
		p.mu.Unlock()
		return nil, ErrDraining
	}
	p.nextID++
	j := &Job{
		id:        fmt.Sprintf("j%06d", p.nextID),
		label:     label,
		status:    StatusQueued,
		created:   time.Now(),
		timeout:   timeout,
		fn:        fn,
		done:      make(chan struct{}),
		cancelReq: make(chan struct{}),
	}
	// The non-blocking send happens under p.mu: Close sets closed and
	// closes the channel only after this critical section, so Submit can
	// never send on a closed queue.
	select {
	case p.queue <- j:
	default:
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
	p.jobs[j.id] = j
	p.order = append(p.order, j.id)
	p.sweepLocked()
	p.mu.Unlock()
	return j, nil
}

// Drain stops accepting new jobs (Submit returns ErrDraining) and
// waits until nothing is queued or running, or ctx is done. Unlike
// Close it cancels nothing: in-flight and already-queued jobs run to
// completion — the graceful half of shutdown, after which Close (which
// only has terminal jobs left to see) is instantaneous. Returns
// ctx.Err() if the deadline expired with work still in flight.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
	const poll = 5 * time.Millisecond
	for {
		st := p.Stats()
		if st.Queued == 0 && st.Running == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.run(j)
	}
}

func (p *Pool) run(j *Job) {
	j.mu.Lock()
	if j.status != StatusQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	ctx := context.WithValue(context.Background(), ctxKey{}, j)
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	fn := j.fn
	j.mu.Unlock()
	defer cancel()

	progress := func(note string) {
		j.mu.Lock()
		if j.status == StatusRunning {
			j.note = note
		}
		j.mu.Unlock()
	}
	result, err := runGuarded(fn, ctx, progress)
	switch {
	case err == nil:
		j.finish(StatusDone, result, "")
	case errors.Is(err, context.Canceled):
		j.finish(StatusCancelled, nil, "cancelled")
	default:
		j.finish(StatusFailed, nil, err.Error())
	}
}

// runGuarded invokes fn with panic containment: workers are not HTTP
// handler goroutines, so without a recover here a single panicking job
// would kill the whole process instead of failing that one job.
func runGuarded(fn Fn, ctx context.Context, progress func(string)) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("jobs: panic: %v", r)
		}
	}()
	return fn(ctx, progress)
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(status Status, result any, errMsg string) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	j.fn = nil // release captured state promptly
	j.cancel = nil
	j.mu.Unlock()
	close(j.done)
}

// Get returns the job's current snapshot; ok is false for unknown or
// already-evicted ids.
func (p *Pool) Get(id string) (Info, bool) {
	p.mu.Lock()
	j := p.jobs[id]
	p.mu.Unlock()
	if j == nil {
		return Info{}, false
	}
	return j.snapshot(), true
}

// Cancel requests cancellation: a queued job is cancelled immediately,
// a running job has its context cancelled (the Fn decides how fast it
// unwinds). ok is false for unknown ids; already-terminal jobs report
// ok without effect.
func (p *Pool) Cancel(id string) (Info, bool) {
	p.mu.Lock()
	j := p.jobs[id]
	p.mu.Unlock()
	if j == nil {
		return Info{}, false
	}
	j.mu.Lock()
	switch j.status {
	case StatusQueued:
		j.mu.Unlock()
		j.requestCancel()
		j.finish(StatusCancelled, nil, "cancelled while queued")
	case StatusRunning:
		cancel := j.cancel
		j.mu.Unlock()
		j.requestCancel()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
	return j.snapshot(), true
}

// Wait blocks until the job reaches a terminal state, maxWait elapses,
// or ctx is done, and returns the job's snapshot at that moment — the
// long-poll primitive behind GET /api/v1/jobs/{id}?waitMs=...
func (p *Pool) Wait(ctx context.Context, id string, maxWait time.Duration) (Info, bool) {
	p.mu.Lock()
	j := p.jobs[id]
	p.mu.Unlock()
	if j == nil {
		return Info{}, false
	}
	if maxWait <= 0 {
		return j.snapshot(), true
	}
	t := time.NewTimer(maxWait)
	defer t.Stop()
	select {
	case <-j.done:
	case <-t.C:
	case <-ctx.Done():
	}
	return j.snapshot(), true
}

// List returns snapshots of all retained jobs, oldest first.
func (p *Pool) List() []Info {
	p.mu.Lock()
	p.sweepLocked()
	js := make([]*Job, 0, len(p.order))
	for _, id := range p.order {
		if j := p.jobs[id]; j != nil {
			js = append(js, j)
		}
	}
	p.mu.Unlock()
	out := make([]Info, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// sweepLocked evicts finished jobs past the retention age or count cap.
// Caller holds p.mu.
func (p *Pool) sweepLocked() {
	cutoff := time.Now().Add(-p.retention)
	finished := 0
	for _, id := range p.order {
		if j := p.jobs[id]; j != nil && j.isFinished() {
			finished++
		}
	}
	keep := p.order[:0]
	for _, id := range p.order {
		j := p.jobs[id]
		if j == nil {
			continue
		}
		if j.isFinished() && (j.finishedBefore(cutoff) || finished > p.maxDone) {
			delete(p.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	p.order = keep
}

func (j *Job) isFinished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}

func (j *Job) finishedBefore(t time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.finished.IsZero() && j.finished.Before(t)
}
