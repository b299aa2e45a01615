// Package par provides the fork-join helpers the native
// (goroutine-based) algorithm implementations and the simulators' host
// replay share: For, a blocked parallel for that forks and joins per
// call, and Pool, a machine's host worker count and the persistent
// helper goroutines it reuses across regions.
package par

import (
	"fmt"
	"sync"
)

// panicCatcher records the first worker panic so the fork-join calls can
// re-raise it in the caller's goroutine; an unrecovered panic inside a
// spawned goroutine would otherwise kill the process and be uncatchable
// by the caller.
type panicCatcher struct {
	once sync.Once
	val  interface{}
}

func (c *panicCatcher) capture() {
	if r := recover(); r != nil {
		c.once.Do(func() { c.val = r })
	}
}

func (c *panicCatcher) rethrow() {
	if c.val != nil {
		panic(fmt.Sprintf("par: worker panicked: %v", c.val))
	}
}

// For splits [0, n) into p nearly equal blocks and runs body for each in
// its own goroutine, waiting for all to finish. body receives the worker
// index and its half-open range. p < 1 is treated as 1; empty blocks are
// skipped.
func For(n, p int, body func(worker, lo, hi int)) {
	if p < 1 {
		p = 1
	}
	if p == 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	var pc panicCatcher
	for w := 0; w < p; w++ {
		lo, hi := w*n/p, (w+1)*n/p
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer pc.capture()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	pc.rethrow()
}
