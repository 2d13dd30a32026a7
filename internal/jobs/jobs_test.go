package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitStatus polls until the job reaches want or the deadline passes.
func waitStatus(t *testing.T, p *Pool, id string, want Status) Info {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		inf, ok := p.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if inf.Status == want {
			return inf
		}
		if inf.Status.Terminal() && !want.Terminal() {
			t.Fatalf("job %s reached terminal %s while waiting for %s", id, inf.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Info{}
}

func TestLifecycleDone(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()
	j, err := p.Submit("double", 0, func(ctx context.Context, progress func(string)) (any, error) {
		progress("working")
		return 42, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inf, ok := p.Wait(context.Background(), j.ID(), time.Second)
	if !ok || inf.Status != StatusDone {
		t.Fatalf("wait = %+v ok=%v", inf, ok)
	}
	if inf.Result != 42 {
		t.Fatalf("result = %v", inf.Result)
	}
	if inf.Started == nil || inf.Finished == nil {
		t.Fatalf("missing timestamps: %+v", inf)
	}
}

func TestLifecycleFailed(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	j, _ := p.Submit("boom", 0, func(ctx context.Context, progress func(string)) (any, error) {
		return nil, errors.New("kaput")
	}, nil)
	inf, _ := p.Wait(context.Background(), j.ID(), time.Second)
	if inf.Status != StatusFailed || inf.Error != "kaput" {
		t.Fatalf("info = %+v", inf)
	}
}

func TestCancelQueued(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	block := make(chan struct{})
	first, _ := p.Submit("blocker", 0, func(ctx context.Context, progress func(string)) (any, error) {
		<-block
		return nil, nil
	}, nil)
	waitStatus(t, p, first.ID(), StatusRunning)
	// Second job sits in the queue behind the blocker.
	second, _ := p.Submit("victim", 0, func(ctx context.Context, progress func(string)) (any, error) {
		t.Error("cancelled queued job ran")
		return nil, nil
	}, nil)
	inf, ok := p.Cancel(second.ID())
	if !ok || inf.Status != StatusCancelled {
		t.Fatalf("cancel = %+v ok=%v", inf, ok)
	}
	close(block)
	waitStatus(t, p, first.ID(), StatusDone)
}

func TestCancelRunning(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	started := make(chan struct{})
	j, _ := p.Submit("obedient", 0, func(ctx context.Context, progress func(string)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, nil)
	<-started
	if _, ok := p.Cancel(j.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	inf, _ := p.Wait(context.Background(), j.ID(), time.Second)
	if inf.Status != StatusCancelled {
		t.Fatalf("status = %s", inf.Status)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	j, _ := p.Submit("slow", 10*time.Millisecond, func(ctx context.Context, progress func(string)) (any, error) {
		d, ok := ctx.Deadline()
		if !ok {
			t.Error("no deadline on job context")
		}
		if until := time.Until(d); until > 10*time.Millisecond {
			t.Errorf("deadline too far out: %v", until)
		}
		<-ctx.Done()
		// A deadline-aware search would return partial results here; a
		// plain timeout surfaces as failed.
		return nil, ctx.Err()
	}, nil)
	inf, _ := p.Wait(context.Background(), j.ID(), time.Second)
	if inf.Status != StatusFailed {
		t.Fatalf("status = %s (want failed on deadline)", inf.Status)
	}
}

func TestQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	blocker := func(ctx context.Context, progress func(string)) (any, error) {
		<-block
		return nil, nil
	}
	run, _ := p.Submit("running", 0, blocker, nil)
	waitStatus(t, p, run.ID(), StatusRunning)
	if _, err := p.Submit("queued", 0, blocker, nil); err != nil {
		t.Fatalf("queue slot should be free: %v", err)
	}
	if _, err := p.Submit("overflow", 0, blocker, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestWaitLongPoll(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	release := make(chan struct{})
	j, _ := p.Submit("slowish", 0, func(ctx context.Context, progress func(string)) (any, error) {
		<-release
		return "ok", nil
	}, nil)
	// Short wait returns a non-terminal snapshot.
	inf, ok := p.Wait(context.Background(), j.ID(), 10*time.Millisecond)
	if !ok || inf.Status.Terminal() {
		t.Fatalf("early wait = %+v", inf)
	}
	close(release)
	inf, _ = p.Wait(context.Background(), j.ID(), time.Second)
	if inf.Status != StatusDone || inf.Result != "ok" {
		t.Fatalf("final wait = %+v", inf)
	}
	// Unknown id.
	if _, ok := p.Wait(context.Background(), "zzz", 0); ok {
		t.Fatal("wait on unknown id reported ok")
	}
}

func TestRetentionSweep(t *testing.T) {
	p := NewPool(2, 64)
	defer p.Close()
	p.maxDone = 3
	noop := func(ctx context.Context, progress func(string)) (any, error) { return nil, nil }
	var last *Job
	for i := 0; i < 10; i++ {
		job, err := p.Submit(fmt.Sprintf("n%d", i), 0, noop, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Wait(context.Background(), job.ID(), time.Second)
		last = job
	}
	list := p.List()
	if len(list) > 4 { // 3 retained finished + possibly the sweep-lag entry
		t.Fatalf("retained %d finished jobs, cap 3: %+v", len(list), list)
	}
	if _, ok := p.Get(last.ID()); !ok {
		t.Fatal("most recent job evicted")
	}
}

func TestCloseCancelsQueuedAndRunning(t *testing.T) {
	p := NewPool(1, 8)
	started := make(chan struct{})
	running, _ := p.Submit("running", 0, func(ctx context.Context, progress func(string)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, nil)
	<-started
	queued, _ := p.Submit("queued", 0, func(ctx context.Context, progress func(string)) (any, error) {
		t.Error("queued job ran after Close")
		return nil, nil
	}, nil)
	p.Close()
	if inf, _ := p.Get(running.ID()); inf.Status != StatusCancelled {
		t.Fatalf("running job after close: %s", inf.Status)
	}
	if inf, _ := p.Get(queued.ID()); inf.Status != StatusCancelled {
		t.Fatalf("queued job after close: %s", inf.Status)
	}
	noop := func(ctx context.Context, progress func(string)) (any, error) { return nil, nil }
	if _, err := p.Submit("late", 0, noop, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p := NewPool(4, 256)
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				job, err := p.Submit(fmt.Sprintf("g%d-%d", g, i), 0,
					func(ctx context.Context, progress func(string)) (any, error) {
						progress("busy")
						return g*100 + i, nil
					}, nil)
				if err != nil {
					errs <- err
					return
				}
				inf, ok := p.Wait(context.Background(), job.ID(), 5*time.Second)
				if !ok || inf.Status != StatusDone || inf.Result != g*100+i {
					errs <- fmt.Errorf("job %s: %+v", job.ID(), inf)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// endCounter is an end hook that counts its runs. It sleeps before
// counting, so a hook that ran after Done closed would read 0 at Done.
type endCounter struct{ n atomic.Int32 }

func (c *endCounter) hook() {
	time.Sleep(2 * time.Millisecond)
	c.n.Add(1)
}

// requireEndedAtDone waits for j's Done and requires exactly one run
// of its hook by then.
func requireEndedAtDone(t *testing.T, j *Job, c *endCounter) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never finished", j.ID())
	}
	if n := c.n.Load(); n != 1 {
		t.Fatalf("job %s: end hook ran %d times by Done, want 1", j.ID(), n)
	}
}

func TestEndHookOnTerminalStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   Fn
		want Status
	}{
		{"done", func(context.Context, func(string)) (any, error) { return 1, nil }, StatusDone},
		{"failed", func(context.Context, func(string)) (any, error) { return nil, errors.New("kaput") }, StatusFailed},
		{"panic", func(context.Context, func(string)) (any, error) { panic("boom") }, StatusFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(1, 8)
			var c endCounter
			j, err := p.Submit(tc.name, 0, tc.fn, c.hook)
			if err != nil {
				t.Fatal(err)
			}
			requireEndedAtDone(t, j, &c)
			if inf, _ := p.Get(j.ID()); inf.Status != tc.want {
				t.Fatalf("status = %s, want %s", inf.Status, tc.want)
			}
			p.Cancel(j.ID())
			p.Close()
			if n := c.n.Load(); n != 1 {
				t.Fatalf("end hook ran %d times after Cancel and Close, want 1", n)
			}
		})
	}
}

func TestEndHookCancelledWhileQueued(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	first, _ := p.Submit("blocker", 0, func(context.Context, func(string)) (any, error) {
		<-block
		return nil, nil
	}, nil)
	waitStatus(t, p, first.ID(), StatusRunning)
	var c endCounter
	j, _ := p.Submit("victim", 0, func(context.Context, func(string)) (any, error) {
		t.Error("cancelled queued job ran")
		return nil, nil
	}, c.hook)
	if inf, _ := p.Cancel(j.ID()); inf.Status != StatusCancelled {
		t.Fatalf("status = %s", inf.Status)
	}
	requireEndedAtDone(t, j, &c)
}

// TestEndHookAtCancelRequest: a running job's hook runs when Cancel is
// asked, while the Fn is still blocked, and not again when it returns.
func TestEndHookAtCancelRequest(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	started, release := make(chan struct{}), make(chan struct{})
	var c endCounter
	j, _ := p.Submit("deaf", 0, func(context.Context, func(string)) (any, error) {
		close(started)
		<-release // ignores its context
		return nil, nil
	}, c.hook)
	<-started
	inf, _ := p.Cancel(j.ID())
	n := c.n.Load()
	close(release)
	if inf.Status != StatusRunning {
		t.Fatalf("status after Cancel = %s, want the Fn still running", inf.Status)
	}
	if n != 1 {
		t.Fatalf("end hook ran %d times when Cancel returned, want 1", n)
	}
	requireEndedAtDone(t, j, &c)
}

func TestEndHookOnClose(t *testing.T) {
	p := NewPool(1, 8)
	started := make(chan struct{})
	var cr, cq endCounter
	running, _ := p.Submit("running", 0, func(ctx context.Context, _ func(string)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, cr.hook)
	<-started
	queued, _ := p.Submit("queued", 0, func(context.Context, func(string)) (any, error) {
		t.Error("queued job ran after Close")
		return nil, nil
	}, cq.hook)
	p.Close()
	requireEndedAtDone(t, running, &cr)
	requireEndedAtDone(t, queued, &cq)
}

func TestEndHookNotRunOnQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	blocker := func(context.Context, func(string)) (any, error) {
		<-block
		return nil, nil
	}
	run, _ := p.Submit("running", 0, blocker, nil)
	waitStatus(t, p, run.ID(), StatusRunning)
	if _, err := p.Submit("queued", 0, blocker, nil); err != nil {
		t.Fatal(err)
	}
	var c endCounter
	if _, err := p.Submit("overflow", 0, blocker, c.hook); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(block)
	p.Close()
	if n := c.n.Load(); n != 0 {
		t.Fatalf("end hook of a rejected job ran %d times", n)
	}
}

// TestEndHookRacesCancel races Cancel against jobs finishing on their
// own: each hook still runs exactly once, before Done.
func TestEndHookRacesCancel(t *testing.T) {
	p := NewPool(4, 256)
	defer p.Close()
	const n = 64
	cs := make([]endCounter, n)
	js := make([]*Job, n)
	for i := range js {
		j, err := p.Submit("racer", 0, func(ctx context.Context, _ func(string)) (any, error) {
			if i%2 == 0 {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return i, nil
		}, cs[i].hook)
		if err != nil {
			t.Fatal(err)
		}
		js[i] = j
	}
	var wg sync.WaitGroup
	for _, j := range js {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Cancel(j.ID())
		}()
	}
	wg.Wait()
	for i, j := range js {
		requireEndedAtDone(t, j, &cs[i])
	}
}

// TestRetentionAge: a finished job older than the age bound is evicted
// by the next Submit; a recent one stays.
func TestRetentionAge(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	noop := func(context.Context, func(string)) (any, error) { return nil, nil }
	var old, recent *Job
	for _, j := range []**Job{&old, &recent} {
		*j, _ = p.Submit("noop", 0, noop, nil)
		<-(*j).Done()
	}
	p.mu.Lock()
	old.mu.Lock()
	old.finished = time.Now().Add(-maxFinishedAge - time.Second)
	old.mu.Unlock()
	p.mu.Unlock()
	if _, ok := p.Get(old.ID()); !ok {
		t.Fatal("job evicted before the next Submit")
	}
	if _, err := p.Submit("noop", 0, noop, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Get(old.ID()); ok {
		t.Fatal("job finished past the age bound still retained")
	}
	if _, ok := p.Get(recent.ID()); !ok {
		t.Fatal("recently finished job evicted")
	}
}

// TestListOrdersBySubmission: List is oldest first across a change in
// the width of the job ids.
func TestListOrdersBySubmission(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	p.nextID = 999_998
	noop := func(context.Context, func(string)) (any, error) { return nil, nil }
	var want []string
	for range 3 {
		j, err := p.Submit("noop", 0, noop, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		want = append(want, j.ID())
	}
	var got []string
	for _, inf := range p.List() {
		got = append(got, inf.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("List order = %v, want %v", got, want)
	}
}

// TestStatsCountsCancelledQueuedEntries: jobs cancelled while queued
// keep their queue entries until a worker takes them, so Stats must
// report the queue full when Submit would say so.
func TestStatsCountsCancelledQueuedEntries(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	blocker := func(context.Context, func(string)) (any, error) {
		<-block
		return nil, nil
	}
	run, _ := p.Submit("running", 0, blocker, nil)
	waitStatus(t, p, run.ID(), StatusRunning)
	for range 2 {
		j, err := p.Submit("queued", 0, blocker, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Cancel(j.ID())
	}
	st := p.Stats()
	if !st.Saturated() || st.Queued != 2 || st.Running != 1 {
		t.Fatalf("stats = %+v, want a saturated queue of 2 and 1 running", st)
	}
	if _, err := p.Submit("overflow", 0, blocker, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}
