package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wait blocks until the job finishes or the test times out.
func wait(t *testing.T, q *Queue, id string) Snapshot {
	t.Helper()
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	s, ok := q.Get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return s
}

// TestFIFOOrder: with one worker, jobs execute strictly in submission
// order and report done with their runner's result.
func TestFIFOOrder(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	q := New(1, 0, func(ctx context.Context, payload any) (any, error) {
		mu.Lock()
		ran = append(ran, payload.(string))
		mu.Unlock()
		return payload.(string) + "-result", nil
	})
	defer q.Drain(context.Background())

	var ids []string
	for i := 0; i < 5; i++ {
		id, err := q.Submit(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		s := wait(t, q, id)
		if s.State != Done {
			t.Fatalf("job %s: state %s, err %v", id, s.State, s.Err)
		}
		if want := fmt.Sprintf("p%d-result", i); s.Result != want {
			t.Errorf("job %s: result %v, want %v", id, s.Result, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range ran {
		if want := fmt.Sprintf("p%d", i); p != want {
			t.Errorf("execution order[%d] = %s, want %s", i, p, want)
		}
	}
}

// TestConcurrencyCap: no more jobs run at once than the queue has
// workers, and all submitted jobs complete.
func TestConcurrencyCap(t *testing.T) {
	const workers, jobs = 3, 20
	var inFlight, peak atomic.Int64
	release := make(chan struct{})
	q := New(workers, 0, func(ctx context.Context, payload any) (any, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-release
		inFlight.Add(-1)
		return nil, nil
	})
	defer q.Drain(context.Background())

	var ids []string
	for i := 0; i < jobs; i++ {
		id, err := q.Submit(i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	time.Sleep(50 * time.Millisecond) // let the pool pick up work
	close(release)
	for _, id := range ids {
		if s := wait(t, q, id); s.State != Done {
			t.Fatalf("job %s: %s (%v)", id, s.State, s.Err)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("saw %d jobs in flight, cap is %d", p, workers)
	}
}

// TestCancelPending: canceling a queued job fails it without running it.
func TestCancelPending(t *testing.T) {
	block := make(chan struct{})
	var ran atomic.Int64
	q := New(1, 0, func(ctx context.Context, payload any) (any, error) {
		ran.Add(1)
		<-block
		return nil, nil
	})
	defer q.Drain(context.Background())

	first, _ := q.Submit("blocker")
	// Wait until the blocker occupies the worker.
	for i := 0; ; i++ {
		if s, _ := q.Get(first); s.State == Running {
			break
		}
		if i > 1000 {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	victim, _ := q.Submit("victim")
	if !q.Cancel(victim) {
		t.Fatal("Cancel(pending) returned false")
	}
	s := wait(t, q, victim)
	if s.State != Failed || !errors.Is(s.Err, ErrCanceled) {
		t.Fatalf("canceled job: state %s, err %v", s.State, s.Err)
	}
	close(block)
	wait(t, q, first)
	if n := ran.Load(); n != 1 {
		t.Errorf("runner executed %d times; the canceled job must never run", n)
	}
}

// TestCancelRunning: canceling a running job cancels its context; the
// job fails with the cancellation cause even if the runner returns nil.
func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	q := New(1, 0, func(ctx context.Context, payload any) (any, error) {
		close(started)
		<-ctx.Done()
		return "ignored", nil
	})
	defer q.Drain(context.Background())

	id, _ := q.Submit("x")
	<-started
	if !q.Cancel(id) {
		t.Fatal("Cancel(running) returned false")
	}
	s := wait(t, q, id)
	if s.State != Failed || !errors.Is(s.Err, ErrCanceled) {
		t.Fatalf("state %s, err %v; want failed with ErrCanceled", s.State, s.Err)
	}
}

// TestDrain: drain fails pending jobs, lets the running one finish, and
// rejects new submissions.
func TestDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	q := New(1, 0, func(ctx context.Context, payload any) (any, error) {
		close(started)
		<-release
		return "finished", nil
	})

	running, _ := q.Submit("running")
	<-started
	queued, _ := q.Submit("queued")

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()

	// The pending job fails promptly, while drain still waits.
	s := wait(t, q, queued)
	if s.State != Failed || !errors.Is(s.Err, ErrCanceled) {
		t.Fatalf("queued job after drain: state %s, err %v", s.State, s.Err)
	}
	select {
	case <-drained:
		t.Fatal("drain returned while a job was still running")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := q.Submit("late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: %v, want ErrDraining", err)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s := wait(t, q, running); s.State != Done || s.Result != "finished" {
		t.Fatalf("in-flight job after drain: state %s, result %v", s.State, s.Result)
	}
}

// TestDrainDeadline: when the drain context expires, running jobs are
// canceled and drain still waits for their runners to return.
func TestDrainDeadline(t *testing.T) {
	started := make(chan struct{})
	q := New(1, 0, func(ctx context.Context, payload any) (any, error) {
		close(started)
		<-ctx.Done() // only a forced drain releases us
		return nil, context.Cause(ctx)
	})
	id, _ := q.Submit("stuck")
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want deadline exceeded", err)
	}
	if s, _ := q.Get(id); s.State != Failed {
		t.Fatalf("stuck job after forced drain: %s", s.State)
	}
}

// TestPanicIsolation: a panicking job fails without killing its worker.
func TestPanicIsolation(t *testing.T) {
	q := New(1, 0, func(ctx context.Context, payload any) (any, error) {
		if payload == "boom" {
			panic("kaboom")
		}
		return "ok", nil
	})
	defer q.Drain(context.Background())

	bad, _ := q.Submit("boom")
	good, _ := q.Submit("fine")
	if s := wait(t, q, bad); s.State != Failed {
		t.Fatalf("panicked job: %s", s.State)
	}
	if s := wait(t, q, good); s.State != Done {
		t.Fatalf("job after panic: %s (%v)", s.State, s.Err)
	}
}

// TestRetention: finished jobs beyond the retention bound are forgotten
// oldest-first; pending and running jobs survive.
func TestRetention(t *testing.T) {
	q := New(1, 2, func(ctx context.Context, payload any) (any, error) { return nil, nil })
	defer q.Drain(context.Background())

	var ids []string
	for i := 0; i < 5; i++ {
		id, err := q.Submit(i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		wait(t, q, id)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Error("oldest finished job survived past the retention bound")
	}
	if _, ok := q.Get(ids[4]); !ok {
		t.Error("newest finished job was evicted")
	}
	c := q.Counts()
	if c.Done > 3 {
		t.Errorf("%d done jobs retained, bound is 2 (+1 in flight at submit time)", c.Done)
	}
	if c.Submitted != 5 {
		t.Errorf("Submitted = %d, want 5", c.Submitted)
	}
}

// TestCounts tracks jobs across states.
func TestCounts(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	q := New(1, 0, func(ctx context.Context, payload any) (any, error) {
		started <- struct{}{}
		<-release
		return nil, nil
	})
	defer q.Drain(context.Background())

	a, _ := q.Submit("a")
	<-started
	q.Submit("b")
	c := q.Counts()
	if c.Running != 1 || c.Pending != 1 {
		t.Fatalf("counts = %+v, want 1 running 1 pending", c)
	}
	close(release)
	wait(t, q, a)
	<-started // b starts
	wait(t, q, "j2")
	c = q.Counts()
	if c.Done != 2 || c.Running != 0 || c.Pending != 0 {
		t.Fatalf("counts after completion = %+v", c)
	}
}
