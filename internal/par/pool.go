package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a host worker count together with the parked helper
// goroutines that serve it: the one owner of a simulator Machine's host
// parallelism. For(n, p, body) spawns and joins p goroutines on every
// call; a simulator replaying thousands of regions would pay that
// spawn/schedule cost thousands of times. A Pool parks its helpers on a
// lightweight channel dispatch instead, so each region costs one send
// and one wait per helper.
//
// Run executes body(0) on the calling goroutine and body(1..n-1) on
// parked helpers, so a region n wide adds n-1 goroutines, parked by the
// first Run that needs them. A Pool is for one fork-join region at a
// time: Run panics if called while another Run on the same Pool is
// still in flight (including from inside a running body). SetWorkers
// must likewise only be called between Runs.
//
// An abandoned Pool does not strand its helpers: a finalizer closes
// their dispatch channels when the Pool becomes unreachable, which is
// what lets a simulator Machine own a Pool without needing an explicit
// release from every caller.
type Pool struct {
	workers int // the SetWorkers count, at least 1
	busy    atomic.Bool
	helpers []chan poolJob
}

type poolJob struct {
	worker int
	body   func(worker int)
	wg     *sync.WaitGroup
	pc     *panicCatcher
}

// NewPool returns a pool set to the given worker count (see
// SetWorkers). It parks no helper until a Run needs one.
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.SetWorkers(workers)
	runtime.SetFinalizer(p, (*Pool).finalize)
	return p
}

// SetWorkers sets the worker count: n < 1 means 1. Parked helpers
// beyond what Workers now allows are released (their goroutines exit);
// missing ones are parked by the next Run that needs them. It must not
// be called while a Run is in flight.
func (p *Pool) SetWorkers(n int) {
	if p.busy.Load() {
		panic("par: Pool.SetWorkers called while the pool is running a region")
	}
	p.workers = max(n, 1)
	for keep := p.Workers() - 1; len(p.helpers) > keep; {
		last := len(p.helpers) - 1
		close(p.helpers[last])
		p.helpers = p.helpers[:last]
	}
}

// Workers returns the worker count capped at runtime.GOMAXPROCS(0):
// workers the scheduler cannot run in parallel would only add dispatch
// overhead. The cap is read on every call, so it follows GOMAXPROCS.
func (p *Pool) Workers() int {
	return min(p.workers, runtime.GOMAXPROCS(0))
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

// Run executes body once per worker 0..n-1 — worker 0 on the calling
// goroutine, the rest on parked helpers — and waits for all of them.
// n < 1 is treated as 1, and n = 1 runs body(0) inline without touching
// a helper; n beyond the parked helpers parks more. A panic in any body
// is re-raised in the caller after every worker has finished. Run
// panics if the pool is already running a region.
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

func (p *Pool) finalize() {
	for _, ch := range p.helpers {
		close(ch)
	}
	p.helpers = nil
}
