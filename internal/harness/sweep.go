package harness

import (
	"context"
	"time"

	"pargraph/internal/mta"
	"pargraph/internal/smp"
	"pargraph/internal/sweep"
	"pargraph/internal/trace"
)

// Cell is one scheduled experiment cell's view of its run: it hands out
// pooled machines (leased from the Env, Reset between borrows, wired to
// the Env's HostWorkers and, when tracing, to the cell's private
// recorder) and, via Resolve, the sweep's shared inputs, noting every
// key it resolves so Memo can check them against the keys the cell
// lists. A Cell is confined to its cell's goroutine.
type Cell struct {
	env      *Env
	inputs   *sweep.Cache    // the sweep's shared single-flight input cache
	rec      *trace.Recorder // per-cell event stream; nil when not tracing
	sample   float64         // MTA within-region sampling for traced cells
	resolved []string        // input keys this cell resolved, in call order
	tapes    *tapeShelf      // the sweep's shared MTA runs (see RunMTA)

	mtas []*mta.Machine
	smps []*smp.Machine
}

// Resolve builds (or waits for) the value under key in the cell's input
// cache: every parameter the build depends on must appear in the key.
// The build runs once across all cells sharing the cache; its result is
// shared read-only.
func Resolve[T any](c *Cell, key string, build func() (T, error)) (T, error) {
	c.resolved = append(c.resolved, key)
	return sweep.GetAs(c.inputs, key, build)
}

// cached is Resolve for builds that cannot fail. A build panic
// re-panics in this cell and is captured by the scheduler as this
// cell's error — inputs never fail the process.
func cached[T any](c *Cell, key string, build func() T) T {
	v, err := Resolve(c, key, func() (T, error) { return build(), nil })
	if err != nil {
		panic(err)
	}
	return v
}

// MTA borrows a machine with the given configuration from the Env's
// pool (constructing one if none is free), Reset and rewired to the
// cell: the Env's HostWorkers, and the cell's recorder when tracing.
func (c *Cell) MTA(cfg mta.Config) *mta.Machine {
	m := c.env.leaseMTA(cfg)
	if m == nil {
		m = mta.New(cfg)
	} else {
		m.Reset()
	}
	m.SetHostWorkers(c.env.HostWorkers)
	if c.rec != nil {
		m.SetSink(c.rec)
		m.SetTraceSampling(c.sample)
	} else {
		m.SetSink(nil)
		m.SetTraceSampling(0)
	}
	c.mtas = append(c.mtas, m)
	return m
}

// SMP is MTA's counterpart for the E4500 model.
func (c *Cell) SMP(cfg smp.Config) *smp.Machine {
	m := c.env.leaseSMP(cfg)
	if m == nil {
		m = smp.New(cfg)
	} else {
		m.Reset()
	}
	m.SetHostWorkers(c.env.HostWorkers)
	if c.rec != nil {
		m.SetSink(c.rec)
	} else {
		m.SetSink(nil)
	}
	c.smps = append(c.smps, m)
	return m
}

// release returns the cell's borrowed machines to the Env pool. Called
// only after the cell function returns cleanly — a failed or panicked
// cell abandons its machines (their replay pools are reclaimed by the
// machines' finalizers), since their state is suspect.
func (c *Cell) release() {
	c.env.returnMachines(c.mtas, c.smps)
	c.mtas, c.smps = nil, nil
}

// sweepOpts configures one runSweep call.
type sweepOpts struct {
	// record attaches a recorder to every cell even with no TraceSink
	// configured; the caller collects the returned recorders itself
	// (RunProfile). Without it, recorders exist only when TraceSink is
	// set, and their events are forwarded there in cell order.
	record bool
	// sample is the MTA within-region sampling granularity for traced
	// cells (see mta.Machine.SetTraceSampling).
	sample float64
}

// stdOpts is the configuration every figure/ablation sweep uses: trace
// into the Env's TraceSink (if any) at the Env's sampling rate.
func (e *Env) stdOpts() sweepOpts { return sweepOpts{sample: e.TraceSampleCycles} }

// RunCell runs fn as a one-cell sweep: the single-run workloads of
// internal/runner lease machines, resolve and persist inputs, forward
// their trace to TraceSink, report to CellObserver, honour Interrupt
// and have a panic captured as the cell's error, exactly as a figures
// cell does.
func (e *Env) RunCell(fn func(*Cell) error) error {
	_, err := e.runSweep(1, e.stdOpts(), func(_ int, c *Cell) error { return fn(c) })
	return err
}

// runCells runs n cells under stdOpts and returns their values in cell
// order; it serves every sweep whose cells return one result type.
// Cells another shard owns keep their zero values. On error the
// lowest-index cell's comes back, with no values.
func runCells[T any](e *Env, n int, cell func(i int, c *Cell) (T, error)) ([]T, error) {
	out := make([]T, n)
	if _, err := e.runSweep(n, e.stdOpts(), func(i int, c *Cell) (err error) {
		out[i], err = cell(i, c)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// runSweep runs n cells under the Env's Jobs setting with one shared
// single-flight input cache and the Env's machine pool. Each traced
// cell records into a private recorder; after the sweep the recorders
// are replayed in cell-index order — cells are laid out in the
// sequential loop order, and a machine's event Seq/Start counters are
// per-machine, so the forwarded stream is byte-identical to what the
// sequential harness would have emitted into TraceSink directly. The
// lowest-index cell error is returned; all cells run regardless (the
// scheduler's determinism contract).
//
// Under an active Shard only owned cells execute; the rest leave their
// output slots (and recorders) zero. A shard's product is the result
// store its owned cells fill: the unsharded run on the same store then
// replays them (see Memo). With CacheStore attached, the sweep's input
// cache persists to disk, so shard processes — and concurrent Envs
// sharing the directory — generate each shared input once between them
// instead of once each.
func (e *Env) runSweep(n int, opts sweepOpts, cell func(i int, c *Cell) error) ([]*trace.Recorder, error) {
	inputs := e.NewInputCache()
	tapes := &tapeShelf{}
	record := opts.record || e.TraceSink != nil
	var recs []*trace.Recorder
	if record {
		recs = make([]*trace.Recorder, n)
	}
	ctx := e.Interrupt
	if ctx == nil {
		ctx = context.Background()
	}
	err := sweep.RunCtx(ctx, n, e.Jobs, func(i int) error {
		if !e.Shard.Owns(i) {
			return nil
		}
		if e.CellObserver != nil {
			start := time.Now()
			defer func() { e.CellObserver(time.Since(start).Seconds()) }()
		}
		c := &Cell{env: e, inputs: inputs, sample: opts.sample, tapes: tapes}
		if record {
			c.rec = &trace.Recorder{}
			recs[i] = c.rec
		}
		if err := cell(i, c); err != nil {
			return err
		}
		c.release()
		return nil
	})
	if !opts.record && e.TraceSink != nil {
		for _, r := range recs {
			if r == nil {
				continue
			}
			for _, e2 := range r.Events {
				e.TraceSink.Emit(e2)
			}
		}
	}
	return recs, err
}
