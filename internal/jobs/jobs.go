// Package jobs provides the asynchronous execution substrate of the
// serving layer: a bounded worker pool running named jobs with an
// explicit lifecycle (queued → running → done/failed/cancelled),
// per-job progress notes, deadline propagation via context, long-poll
// waiting, an end-of-job hook, and retention-bounded bookkeeping of
// finished jobs.
//
// The HTTP server enqueues each mine call as a job so request handlers
// never block on a search budget: clients either wait (long-poll) or
// poll the job id. The pool bounds concurrent searches to a fixed
// worker count, so a burst of expensive mines degrades into queueing
// latency instead of unbounded goroutines competing for every core.
//
// Finished jobs stay queryable until Submit or List evicts them, oldest
// finish first, once more than 1024 are retained or once they finished
// more than 10 minutes ago. The pool records that order as jobs finish,
// so eviction never scans the retained jobs. It likewise counts running
// jobs as they start and finish, so Stats — every readiness probe —
// costs the same however many jobs are retained.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Retention bounds on finished jobs: whichever hits first evicts the
// oldest finished jobs.
const (
	maxFinishedAge = 10 * time.Minute
	maxFinished    = 1024
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
	seq   int // submission order, for List
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

	// onEnd is the Submit caller's end-of-job hook, guarded by mu; end
	// runs it once and drops it.
	onEnd        func()
	ended        sync.Once
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

// end runs the job's end hook, at most once over the job's life, and
// drops it, so a retained job keeps nothing the hook captured alive. It
// is called with no lock held, at a cancel request and again at the
// terminal state; a call that finds the hook running on another
// goroutine returns only once it has run, so Done never closes first.
func (j *Job) end() {
	j.ended.Do(func() {
		j.mu.Lock()
		onEnd := j.onEnd
		j.onEnd = nil
		j.mu.Unlock()
		if onEnd != nil {
			onEnd()
		}
	})
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
	finished []*Job // retained finished jobs, in the order they finished
	running  int    // jobs in StatusRunning; run and finish keep it under mu
	nextID   int
	closed   bool
	draining bool

	queue    chan *Job
	wg       sync.WaitGroup
	workers  int
	queueCap int
	maxDone  int // cap on retained finished jobs; maxFinished outside tests
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

// Stats reports current pool load. Queued counts the entries in the
// pending queue, which is what Submit's ErrQueueFull tests: a job
// cancelled while queued holds its entry until a worker takes it.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers:  p.workers,
		QueueCap: p.queueCap,
		Queued:   len(p.queue),
		Running:  p.running,
		Draining: p.draining,
	}
}

// NewPool starts a pool with the given number of workers and pending
// queue capacity. Non-positive arguments get defaults (2 workers,
// queue 64).
func NewPool(workers, queueCap int) *Pool {
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	p := &Pool{
		jobs:     map[string]*Job{},
		queue:    make(chan *Job, queueCap),
		workers:  workers,
		queueCap: queueCap,
		maxDone:  maxFinished,
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
		p.finish(j, StatusCancelled, nil, "pool closed")
	}
	for _, j := range running {
		j.end()
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
//
// A non-nil onEnd runs exactly once, on no pool or job lock, at the
// first of a cancel request (Cancel or Close) and the job's terminal
// state, and always before Done closes. A caller that holds a resource
// on the job's behalf releases it there: at a cancel request that is
// before the Fn notices its context and unwinds. onEnd does not run
// when Submit returns an error.
func (p *Pool) Submit(label string, timeout time.Duration, fn Fn, onEnd func()) (*Job, error) {
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
		id:      fmt.Sprintf("j%06d", p.nextID),
		seq:     p.nextID,
		label:   label,
		status:  StatusQueued,
		created: time.Now(),
		timeout: timeout,
		fn:      fn,
		done:    make(chan struct{}),
		onEnd:   onEnd,
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
	p.evictLocked()
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
	// No job is submitted once draining is set, and none is evicted
	// before it finishes, so the jobs held now are all Drain waits for.
	p.mu.Lock()
	p.draining = true
	js := make([]*Job, 0, len(p.jobs))
	for _, j := range p.jobs {
		js = append(js, j)
	}
	p.mu.Unlock()
	for _, j := range js {
		select {
		case <-j.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.run(j)
	}
}

func (p *Pool) run(j *Job) {
	// p.mu then j.mu, the order finish takes them: the running count
	// moves with the status.
	p.mu.Lock()
	j.mu.Lock()
	if j.status != StatusQueued { // cancelled while queued
		j.mu.Unlock()
		p.mu.Unlock()
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
	p.running++
	p.mu.Unlock()
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
		p.finish(j, StatusDone, result, "")
	case errors.Is(err, context.Canceled):
		p.finish(j, StatusCancelled, nil, "cancelled")
	default:
		p.finish(j, StatusFailed, nil, err.Error())
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

// finish moves the job to a terminal state exactly once, queues it for
// eviction and, when it was running, drops it from the running count.
// It writes j.finished under p.mu as well as j.mu, so evictLocked reads
// it under p.mu alone.
func (p *Pool) finish(j *Job, status Status, result any, errMsg string) {
	p.mu.Lock()
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		p.mu.Unlock()
		return
	}
	if j.status == StatusRunning {
		p.running--
	}
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	j.fn = nil // release captured state promptly
	j.cancel = nil
	j.mu.Unlock()
	p.finished = append(p.finished, j)
	p.mu.Unlock()
	j.end()
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
		p.finish(j, StatusCancelled, nil, "cancelled while queued")
	case StatusRunning:
		cancel := j.cancel
		j.mu.Unlock()
		j.end()
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
	p.evictLocked()
	js := make([]*Job, 0, len(p.jobs))
	for _, j := range p.jobs {
		js = append(js, j)
	}
	p.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return js[a].seq < js[b].seq })
	out := make([]Info, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// evictLocked drops finished jobs from the front of p.finished while
// more than maxDone are retained or the oldest finished more than
// maxFinishedAge ago. Caller holds p.mu.
func (p *Pool) evictLocked() {
	cutoff := time.Now().Add(-maxFinishedAge)
	n := 0
	for n < len(p.finished) && (len(p.finished)-n > p.maxDone || p.finished[n].finished.Before(cutoff)) {
		delete(p.jobs, p.finished[n].id)
		p.finished[n] = nil
		n++
	}
	p.finished = p.finished[n:]
}
