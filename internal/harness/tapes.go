package harness

import (
	"fmt"
	"sync"

	"pargraph/internal/mta"
)

// Shared MTA runs. An MTA kernel's charges do not depend on the
// processor or stream count (see mta.ChargeClass), yet E1, E2, E3, E6
// and E8 time one kernel on one input at several of them, one cell each.
// The first cell of a sweep to need a run executes it live while
// recording a tape; every later cell needing it plays the tape on its
// own machine. Cells, result keys and every simulated bit stay as they
// were: a played machine's Stats and events are those of a live run.
//
// Tapes live in memory only, in a shelf owned by one runCells call:
// never persisted, never a cell input, never in a manifest. A tape is
// dropped after its last declared use and never outlives its sweep.

// tapeKey names one shared run: the caller's run name (kernel, input
// keys, parameters) and the charge class its machines share.
type tapeKey struct {
	run   string
	class mta.ChargeClass
}

// sharedRun is one shared run's single-flight slot: done closes once the
// recording cell has finished, successfully or not.
type sharedRun struct {
	done chan struct{}
	tape *mta.Tape
	err  error
	left int // declared uses not yet made
}

// tapeShelf is one sweep's shared runs.
type tapeShelf struct {
	mu   sync.Mutex
	runs map[tapeKey]*sharedRun
}

// RunMTA returns a machine with configuration cfg that has been timed on
// kernel. run names the kernel, its input keys and every parameter its
// charges depend on; uses is how many cells of the sweep call RunMTA
// with that run. The first of them runs kernel live on its machine while
// recording a tape, and kernel verifies its own result there; the others
// play the tape, so kernel runs at most once per run and charge class.
// If the recording kernel returns an error or panics, every cell sharing
// the run fails with that error.
//
// Call RunMTA inside Memo's compute, so memo hits never record, and only
// after resolving every input the cell lists: a cell that plays a tape
// runs no kernel code, so an input resolved only inside kernel would be
// missing from its resolved set.
func (c *Cell) RunMTA(run string, uses int, cfg mta.Config, kernel func(*mta.Machine) error) (*mta.Machine, error) {
	m := c.MTA(cfg)
	if uses < 2 {
		return m, kernel(m)
	}
	key := tapeKey{run: run, class: cfg.ChargeClass()}
	r, record := c.tapes.take(key, uses)
	if record {
		return m, r.record(m, run, kernel)
	}
	<-r.done
	if r.err != nil {
		return m, r.err
	}
	return m, m.Play(r.tape)
}

// take claims one use of the run under key. The first claim creates the
// slot and must record it; the last claim removes it from the shelf, so
// the tape is freed once its last user has it.
func (s *tapeShelf) take(key tapeKey, uses int) (r *sharedRun, record bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[key]
	if !ok {
		if s.runs == nil {
			s.runs = make(map[tapeKey]*sharedRun)
		}
		r = &sharedRun{done: make(chan struct{}), left: uses}
		s.runs[key] = r
	}
	if r.left--; r.left == 0 {
		delete(s.runs, key)
	}
	return r, !ok
}

// record runs kernel live on m while recording the run's tape, then
// releases the cells waiting for it. A kernel panic is handed to them as
// an error and re-raised in this cell, whose scheduler captures it.
func (r *sharedRun) record(m *mta.Machine, run string, kernel func(*mta.Machine) error) error {
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("harness: shared MTA run %q panicked: %v", run, v)
			close(r.done)
			panic(v)
		}
	}()
	r.tape, r.err = m.RecordTape(kernel)
	close(r.done)
	return r.err
}
