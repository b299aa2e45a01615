// Package jobqueue is a bounded in-process job queue: submissions are
// FIFO, execution is limited to a configurable number of workers, and
// every job moves through an observable lifecycle —
//
//	pending → running → done | failed
//
// — with per-job cancellation (a pending job fails immediately, a
// running one has its context canceled and fails when its runner
// returns) and graceful drain (stop admitting, fail what is still
// queued, wait for in-flight jobs to finish). cmd/serve builds its HTTP
// job API on top of this; the queue itself knows nothing about HTTP or
// what a job computes — payload and result are opaque to it.
package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State string

const (
	Pending State = "pending" // queued, not yet picked up by a worker
	Running State = "running" // a worker is executing it
	Done    State = "done"    // finished successfully; Result is set
	Failed  State = "failed"  // finished with an error (including canceled)
)

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("jobqueue: draining, not accepting jobs")

// ErrCanceled is the failure cause of jobs canceled by Cancel or
// abandoned in the queue by Drain.
var ErrCanceled = errors.New("jobqueue: job canceled")

// Runner executes one job's payload. The context is canceled when the
// job is canceled or the queue force-stops; runners should return
// promptly once it is done. The returned value becomes the job's
// Result.
type Runner func(ctx context.Context, payload any) (any, error)

// job is the queue's internal record; all fields past the immutables
// are guarded by the queue mutex.
type job struct {
	id       string
	payload  any
	state    State
	err      error
	result   any
	enqueued time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelCauseFunc // non-nil while running
	done     chan struct{}           // closed on done/failed
}

// Snapshot is a consistent copy of one job's observable state.
type Snapshot struct {
	ID       string
	State    State
	Payload  any   // what was submitted
	Err      error // non-nil iff State == Failed
	Result   any   // non-nil iff State == Done (and the runner returned one)
	Enqueued time.Time
	Started  time.Time // zero while pending
	Finished time.Time // zero until done/failed
}

// Wait returns how long the job sat queued (up to now if still pending).
func (s Snapshot) Wait(now time.Time) time.Duration {
	if s.Started.IsZero() {
		return now.Sub(s.Enqueued)
	}
	return s.Started.Sub(s.Enqueued)
}

// Counts is the queue's aggregate state for metrics.
type Counts struct {
	Pending, Running, Done, Failed int
	Submitted                      int64 // total accepted since the queue started
}

// Queue is a FIFO job queue executed by a fixed worker pool. Safe for
// concurrent use.
type Queue struct {
	run    Runner
	retain int

	mu       sync.Mutex
	cond     *sync.Cond
	fifo     []*job // pending jobs in submission order
	jobs     map[string]*job
	order    []string // job ids in submission order, for retention
	seq      int64
	draining bool
	counts   Counts
	wg       sync.WaitGroup
}

// New starts a queue with the given concurrency cap. Workers below 1 is
// a programming error. retain bounds how many finished jobs (and their
// results) are kept for later inspection: once exceeded, the oldest
// finished jobs are forgotten. retain <= 0 keeps everything.
func New(workers int, retain int, run Runner) *Queue {
	if workers < 1 {
		panic(fmt.Sprintf("jobqueue: workers must be >= 1, got %d", workers))
	}
	q := &Queue{run: run, retain: retain, jobs: make(map[string]*job)}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// Submit enqueues a payload and returns the new job's id. Fails only
// once the queue is draining.
func (q *Queue) Submit(payload any) (string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return "", ErrDraining
	}
	q.seq++
	j := &job{
		id:       fmt.Sprintf("j%d", q.seq),
		payload:  payload,
		state:    Pending,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	q.jobs[j.id] = j
	q.order = append(q.order, j.id)
	q.fifo = append(q.fifo, j)
	q.counts.Submitted++
	q.evictLocked()
	q.cond.Signal()
	return j.id, nil
}

// evictLocked forgets the oldest finished jobs beyond the retention
// bound. Pending and running jobs are never evicted.
func (q *Queue) evictLocked() {
	if q.retain <= 0 {
		return
	}
	finished := 0
	for _, id := range q.order {
		if s := q.jobs[id].state; s == Done || s == Failed {
			finished++
		}
	}
	for i := 0; finished > q.retain && i < len(q.order); {
		id := q.order[i]
		if s := q.jobs[id].state; s == Done || s == Failed {
			delete(q.jobs, id)
			q.order = append(q.order[:i], q.order[i+1:]...)
			finished--
			continue
		}
		i++
	}
}

// Get returns a snapshot of the job, or ok=false if the id is unknown
// (never submitted, or evicted by the retention bound).
func (q *Queue) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return snapshotLocked(j), true
}

func snapshotLocked(j *job) Snapshot {
	return Snapshot{
		ID: j.id, State: j.state, Payload: j.payload, Err: j.err, Result: j.result,
		Enqueued: j.enqueued, Started: j.started, Finished: j.finished,
	}
}

// Cancel stops a job: a pending job fails immediately with ErrCanceled;
// a running job has its context canceled and fails when its runner
// returns. Returns false when the id is unknown or the job already
// finished.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return false
	}
	switch j.state {
	case Pending:
		q.failLocked(j, ErrCanceled)
		return true
	case Running:
		j.cancel(ErrCanceled)
		return true
	default:
		return false
	}
}

// failLocked finishes a never-run job. The worker loop skips jobs whose
// state left Pending while they sat in the fifo.
func (q *Queue) failLocked(j *job, err error) {
	j.state = Failed
	j.err = err
	j.finished = time.Now()
	close(j.done)
}

// Counts reports the queue's aggregate state.
func (q *Queue) Counts() Counts {
	q.mu.Lock()
	defer q.mu.Unlock()
	c := q.counts
	for _, j := range q.jobs {
		switch j.state {
		case Pending:
			c.Pending++
		case Running:
			c.Running++
		case Done:
			c.Done++
		case Failed:
			c.Failed++
		}
	}
	return c
}

// Drain shuts the queue down gracefully: no new submissions, still-
// pending jobs fail with ErrCanceled, and in-flight jobs run to
// completion. If ctx expires first, the in-flight jobs' contexts are
// canceled and Drain keeps waiting for their runners to return — the
// worker goroutines always exit. Idempotent.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.draining = true
	for _, j := range q.fifo {
		if j.state == Pending {
			q.failLocked(j, ErrCanceled)
		}
	}
	q.fifo = nil
	q.cond.Broadcast()
	q.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = context.Cause(ctx)
		q.mu.Lock()
		for _, j := range q.jobs {
			if j.state == Running {
				j.cancel(fmt.Errorf("jobqueue: drain deadline passed: %w", err))
			}
		}
		q.mu.Unlock()
		<-finished
	}
	return err
}

// worker pulls pending jobs in FIFO order until drain empties the queue.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.fifo) == 0 && !q.draining {
			q.cond.Wait()
		}
		if len(q.fifo) == 0 {
			q.mu.Unlock()
			return
		}
		j := q.fifo[0]
		q.fifo = q.fifo[1:]
		if j.state != Pending { // canceled while queued
			q.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		j.state = Running
		j.started = time.Now()
		j.cancel = cancel
		q.mu.Unlock()

		result, err := q.runOne(ctx, j.payload)
		// Read the cancellation cause before the cleanup cancel below
		// stamps its own; a runner that returned success after being
		// canceled still fails, so Cancel's contract holds.
		if cause := context.Cause(ctx); cause != nil && err == nil {
			err = cause
		}
		cancel(nil)

		q.mu.Lock()
		j.cancel = nil
		j.finished = time.Now()
		if err != nil {
			j.state = Failed
			j.err = err
		} else {
			j.state = Done
			j.result = result
		}
		close(j.done)
		q.mu.Unlock()
	}
}

// runOne executes the runner, converting a panic into a job failure so
// one bad job cannot take down the worker pool.
func (q *Queue) runOne(ctx context.Context, payload any) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobqueue: job panicked: %v", r)
		}
	}()
	return q.run(ctx, payload)
}
