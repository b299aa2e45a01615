package harness

import (
	"context"
	"sync"

	"pargraph/internal/diskcache"
	"pargraph/internal/mta"
	"pargraph/internal/smp"
	"pargraph/internal/sweep"
	"pargraph/internal/trace"
)

// Env is one run's complete execution environment, carried as a value.
// Every Run* sweep entry point is a method on *Env, so two runs with
// different settings — jobs, shard, caches, hooks, trace sinks — can
// execute concurrently in one process without seeing each other's
// configuration. internal/runner builds one Env per spec execution;
// cmd/serve therefore runs jobs genuinely in parallel.
//
// The zero Env is valid: cells run sequentially (Jobs < 1 means 1),
// machines replay regions on one host worker (HostWorkers < 1 means 1),
// nothing is cached, traced, sharded, or interruptible. An Env's
// exported fields are set before the first Run* call and not mutated
// during one; the machine pool below is the only cross-goroutine
// mutable state and carries its own lock.
type Env struct {
	// Jobs is how many experiment cells every sweep executes
	// concurrently (see internal/sweep); values < 1 run sequentially.
	// Any value yields bit-identical results, traces included.
	Jobs int

	// HostWorkers is the host goroutine count every machine this Env
	// constructs uses to replay data-parallel regions (see
	// mta.Machine.SetHostWorkers); values < 1 mean 1. Identical
	// simulated results for any value.
	HostWorkers int

	// Interrupt, when non-nil, cancels in-flight sweeps at the next
	// cell boundary.
	Interrupt context.Context

	// Shard restricts every sweep to the cells an i-of-N shard owns;
	// the zero value runs everything.
	Shard sweep.Shard

	// CacheStore, when non-nil, persists generated inputs
	// (content-addressed, InputSchema); ResultStore memoizes whole
	// sweep-cell outcomes (ResultSchema). Stores may be shared between
	// concurrent Envs — diskcache is already multi-process-safe, and
	// NewInputCache joins the process-wide build flight so two Envs on
	// one directory build each input once between them.
	CacheStore  *diskcache.Store
	ResultStore *diskcache.Store

	// InputHook observes the digest of every input a cell consumes:
	// hashed by the input cache when the cell resolves it
	// (sweep.Cache.Hook), or replayed from the cell's memoized result
	// when the result cache serves it. ResultHook observes every
	// memoized-cell decision (key, hit). Both serve manifest provenance
	// and must be safe for concurrent calls from cells.
	InputHook  func(sweep.Digest)
	ResultHook func(key string, hit bool)

	// TraceSink, when non-nil, traces every sweep: it receives each
	// cell's events in cell order after the sweep. TraceSampleCycles
	// additionally samples MTA within-region timelines at that
	// simulated-cycle granularity. Whether a sweep traces, and at what
	// sampling, is part of each cell's result key (see Memo).
	TraceSink         trace.Sink
	TraceSampleCycles float64

	// CellObserver, when non-nil, receives the wall-clock seconds of
	// every sweep cell this Env executes (owned cells only; skipped
	// shard cells don't report), the one cell of a RunCell single run
	// included. It is called concurrently from cell goroutines and must
	// be safe for that. cmd/serve hangs its per-cell latency
	// percentiles off this.
	CellObserver func(seconds float64)

	// The machine pool: simulators are expensive to construct, so
	// cells lease them per-config under the pool lock, Reset between
	// borrows, and return them on clean completion. The pool is
	// per-Env — shared across all of one run's sweeps, never between
	// concurrent runs, so a leased machine's sink/worker wiring can't
	// bleed across jobs.
	poolMu  sync.Mutex
	mtaFree map[mta.Config][]*mta.Machine
	smpFree map[smp.Config][]*smp.Machine
}

// NewInputCache returns a fresh single-flight input cache wired to the
// Env: backed by the persistent store when one is attached, observed by
// the Env's input hook, keeping input digests when results are memoized
// (Memo stores them beside each result), and joined to the process-wide
// build flight for that store's directory+schema so concurrent Envs
// sharing one cache directory generate each input once between them
// instead of once each. Every input key names its content, so every
// input may persist.
func (e *Env) NewInputCache() *sweep.Cache {
	c := &sweep.Cache{Hook: e.InputHook, Digests: e.ResultStore != nil}
	if e.CacheStore != nil {
		c.Disk = e.CacheStore
		c.Flight = sweep.FlightFor(e.CacheStore.Dir() + "\x00" + e.CacheStore.Schema())
	}
	return c
}

// leaseMTA takes a free machine of the given config from the Env pool,
// or reports that none was available (the caller constructs one).
func (e *Env) leaseMTA(cfg mta.Config) *mta.Machine {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	free := e.mtaFree[cfg]
	if len(free) == 0 {
		return nil
	}
	m := free[len(free)-1]
	e.mtaFree[cfg] = free[:len(free)-1]
	return m
}

func (e *Env) leaseSMP(cfg smp.Config) *smp.Machine {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	free := e.smpFree[cfg]
	if len(free) == 0 {
		return nil
	}
	m := free[len(free)-1]
	e.smpFree[cfg] = free[:len(free)-1]
	return m
}

// returnMachines puts a cell's cleanly released machines back in the
// pool for the next cell (of any of this Env's sweeps) to lease.
func (e *Env) returnMachines(mtas []*mta.Machine, smps []*smp.Machine) {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.mtaFree == nil {
		e.mtaFree = make(map[mta.Config][]*mta.Machine)
	}
	if e.smpFree == nil {
		e.smpFree = make(map[smp.Config][]*smp.Machine)
	}
	for _, m := range mtas {
		e.mtaFree[m.Config()] = append(e.mtaFree[m.Config()], m)
	}
	for _, m := range smps {
		e.smpFree[m.Config()] = append(e.smpFree[m.Config()], m)
	}
}
