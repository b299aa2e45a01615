package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent team of parked worker goroutines for repeated
// fork-join regions. For(n, p, body) spawns and joins p goroutines on
// every call; a simulator replaying thousands of regions pays that
// spawn/schedule cost thousands of times. A Pool parks its helpers on a
// lightweight channel dispatch instead, so each region costs one send
// and one wait per helper.
//
// Run executes body(0) on the calling goroutine and body(1..n-1) on
// parked helpers, so a Pool sized for n adds n-1 goroutines. A Pool is
// for one fork-join region at a time: Run panics if called while
// another Run on the same Pool is still in flight (including from
// inside a running body). Resize and Close must likewise only be called
// between Runs.
//
// An abandoned Pool does not strand its helpers: a finalizer closes
// their dispatch channels when the Pool becomes unreachable, which is
// what lets a simulator Machine own a Pool without needing an explicit
// Close from every caller.
type Pool struct {
	busy    atomic.Bool
	helpers []chan poolJob
}

type poolJob struct {
	worker int
	body   func(worker int)
	wg     *sync.WaitGroup
	pc     *panicCatcher
}

// NewPool returns a pool sized for Run(workers, ...): it parks
// max(0, workers-1) helper goroutines.
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.grow(workers - 1)
	runtime.SetFinalizer(p, (*Pool).finalize)
	return p
}

// grow parks additional helpers until len(p.helpers) >= n.
func (p *Pool) grow(n int) {
	for len(p.helpers) < n {
		ch := make(chan poolJob, 1)
		p.helpers = append(p.helpers, ch)
		// The helper references only its channel, never the Pool, so an
		// unreachable Pool (and its finalizer) is not kept alive by its
		// own workers.
		go func(ch chan poolJob) {
			for job := range ch {
				func() {
					defer job.wg.Done()
					defer job.pc.capture()
					job.body(job.worker)
				}()
			}
		}(ch)
	}
}

// Size reports how many workers Run can currently dispatch without
// growing: the parked helpers plus the calling goroutine.
func (p *Pool) Size() int { return len(p.helpers) + 1 }

// Run executes body once per worker 0..n-1 — worker 0 on the calling
// goroutine, the rest on parked helpers — and waits for all of them.
// n < 1 is treated as 1; n beyond the pool's size grows the pool. A
// panic in any body is re-raised in the caller after every worker has
// finished. Run panics if the pool is already running a region.
func (p *Pool) Run(n int, body func(worker int)) {
	if n <= 1 {
		body(0)
		return
	}
	if !p.busy.CompareAndSwap(false, true) {
		panic("par: Pool.Run called while the pool is already running a region")
	}
	defer p.busy.Store(false)
	p.grow(n - 1)
	var wg sync.WaitGroup
	var pc panicCatcher
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		p.helpers[w-1] <- poolJob{worker: w, body: body, wg: &wg, pc: &pc}
	}
	func() {
		defer pc.capture()
		body(0)
	}()
	wg.Wait()
	pc.rethrow()
}

// Resize re-targets the pool for Run(workers, ...): surplus helpers are
// released (their goroutines exit) and missing ones are parked. It must
// not be called while a Run is in flight.
func (p *Pool) Resize(workers int) {
	if p.busy.Load() {
		panic("par: Pool.Resize called while the pool is running a region")
	}
	n := workers - 1
	if n < 0 {
		n = 0
	}
	for len(p.helpers) > n {
		last := len(p.helpers) - 1
		close(p.helpers[last])
		p.helpers = p.helpers[:last]
	}
	p.grow(n)
}

// Close releases every helper goroutine. The pool remains usable — a
// later Run simply re-grows it — so Close is an optimization point, not
// a lifecycle obligation (the finalizer covers abandonment).
func (p *Pool) Close() {
	p.Resize(1)
}

func (p *Pool) finalize() {
	for _, ch := range p.helpers {
		close(ch)
	}
	p.helpers = nil
}
