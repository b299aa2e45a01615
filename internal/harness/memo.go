package harness

import (
	"fmt"
	"slices"

	"pargraph/internal/binenc"
	"pargraph/internal/sim"
	"pargraph/internal/sweep"
	"pargraph/internal/trace"
)

// Result memoization: the disk-cache tier one level above the input
// cache. Every sweep cell's outcome — its report row (or model
// numbers) plus, when tracing, the events it emitted — is a pure
// function of the simulator's cost semantics (sim.CostSchemaVersion),
// the inputs' generators and encodings (InputSchema), the cell's
// result-relevant config, and its inputs' content keys. That is
// exactly a sweep.ResultKey, so a warm cell loads its outcome from the
// ResultStore and skips simulation entirely, byte-identically: the
// determinism contract the jobs/shard machinery already pins means a
// replayed result is indistinguishable from a recomputed one.
//
// The result is looked up before any input is touched. Beside the
// value and the events, an entry stores the (key, sha256, bytes)
// digest of every input the cell lists, so a hit replays those digests
// into the Env's InputHook (the manifest log) and opens no input at
// all. Only a miss resolves inputs.
//
// Correctness rules every call site follows:
//
//   - Inputs (including verify-only references) are resolved through
//     Resolve or cached() INSIDE the compute closure, and the cell
//     lists exactly the keys its compute resolves. On a miss Memo
//     fails the cell if the two sets differ, so a warm run's replayed
//     digests always name the same inputs a cold run hashes. Resolve
//     outside the closure only where the run needs the value outside
//     the memoized body, and list that key too.
//   - A cell resolves its listed inputs before a shared MTA run
//     (Cell.RunMTA), never only inside the kernel it passes: a cell
//     that plays another cell's tape runs no kernel code, so an input
//     resolved there would be missing from its resolved set.
//   - A replayed digest goes through the same InputHook as a freshly
//     hashed one, so the manifest log's conflict check catches a
//     stored digest that disagrees with the input it names.
//   - The cell config string carries every result-relevant parameter
//     not already inside an input key — seeds used directly by kernels,
//     processor counts, verify flags — and no execution knobs (jobs,
//     shard, workers never appear).
//   - Trace mode is part of the key: a traced cell's events are part of
//     its result, so traced and untraced runs memoize separately.
//   - Any undecodable entry is a miss; the cell recomputes and
//     overwrites. Bumping sim.CostSchemaVersion (cost semantics),
//     InputSchema (inputs) or ResultSchema (encoding) strands all old
//     entries at once.

// InputSchema is the diskcache schema salt for harness inputs. Bump it
// whenever the meaning of a cache key or the encoding of a cached value
// changes; old entries then read as misses and regenerate, so stale
// caches can never leak between incompatible versions.
const InputSchema = "pargraph-inputs-v1"

// ResultSchema is the diskcache schema salt for memoized results. Bump
// it whenever the stored bytes of any result type change: a change to
// binenc's value codec or the payload framing (encodeResult), or to the
// fields of a memoized type, trace.Event or sweep.Digest, which the
// encoding derives from (TestResultEncodings and
// TestResultPayloadEncoding pin the bytes).
// Bump sim.CostSchemaVersion instead when the simulated numbers
// themselves change meaning.
const ResultSchema = "pargraph-results-v2"

// traceMode names the cell's tracing configuration for its result key:
// a traced cell's stored payload includes its event stream, so traced
// and untraced (and differently-sampled) runs must not share entries.
func (c *Cell) traceMode() string {
	if c.rec == nil {
		return "notrace"
	}
	return fmt.Sprintf("trace/%g", c.env.TraceSampleCycles)
}

// Memo returns the memoized result of compute for this cell. cell is
// the canonical result-relevant config, inputs the content keys of
// every cached input compute resolves. On a hit the stored value is
// decoded, the cell's recorded events replayed into its recorder and
// the stored input digests into the Env's InputHook, and compute never
// runs. On a miss compute runs and resolves its own inputs; Memo checks
// they are exactly the listed ones, then stores the value, the events
// it emitted and the listed inputs' digests, best-effort. With no
// ResultStore the compute runs unmemoized, still checked. A Cell runs
// one memoized computation. T's encoding derives from its type (see
// binenc.AppendValue).
func Memo[T any](c *Cell, cell string, inputs []string, compute func() (T, error)) (T, error) {
	store, hook := c.env.ResultStore, c.env.ResultHook
	var key string
	if store != nil || hook != nil {
		key = sweep.ResultKey(sim.CostSchemaVersion, InputSchema, cell+"|"+c.traceMode(), inputs...)
	}
	if store != nil {
		if data, ok := store.Get(key); ok {
			if v, evs, ds, ok := decodeResult[T](data, inputs); ok {
				if c.rec != nil {
					c.rec.Events = append(c.rec.Events, evs...)
				}
				if ih := c.env.InputHook; ih != nil {
					for _, d := range ds {
						ih(d)
					}
				}
				if hook != nil {
					hook(key, true)
				}
				return v, nil
			}
			// Undecodable under the current encoding: treat as stale,
			// fall through and resimulate (the Put below overwrites).
		}
	}
	start := 0
	if c.rec != nil {
		start = len(c.rec.Events)
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	if err := c.checkInputs(cell, inputs); err != nil {
		return v, err
	}
	if store != nil {
		ds := make([]sweep.Digest, len(inputs))
		for i, in := range inputs {
			d, ok := c.inputs.Digest(in)
			if !ok {
				return v, fmt.Errorf("harness: cell %q: input %q has no digest to store with its result", cell, in)
			}
			ds[i] = d
		}
		var evs []trace.Event
		if c.rec != nil {
			evs = c.rec.Events[start:]
		}
		store.Put(key, encodeResult(v, evs, ds)) // best-effort: a failed put only loses warmth
	}
	if hook != nil {
		hook(key, false)
	}
	return v, nil
}

// checkInputs enforces the listing rule on a computed cell: the keys it
// resolved must be exactly the keys it listed, or a warm replay of its
// result would record a different input set than this run did.
func (c *Cell) checkInputs(cell string, listed []string) error {
	got, want := keySet(c.resolved), keySet(listed)
	if !slices.Equal(got, want) {
		return fmt.Errorf("harness: cell %q lists inputs %q but resolved %q; a memoized cell must resolve exactly the inputs it lists", cell, want, got)
	}
	return nil
}

// keySet returns keys sorted and deduplicated.
func keySet(keys []string) []string {
	s := slices.Clone(keys)
	slices.Sort(s)
	return slices.Compact(s)
}

// encodeResult lays out a stored payload: the value, then the events it
// emitted, then the listed inputs' digests. Each of the two sections is
// a plain count followed by its elements' encodings (binenc.AppendList),
// the framing every stored entry has had since results were first
// memoized; encoding the payload as one struct would count its slices
// n+1 and strand those entries.
func encodeResult[T any](v T, evs []trace.Event, ds []sweep.Digest) []byte {
	return binenc.AppendList(binenc.AppendList(binenc.AppendValue(nil, v), evs), ds)
}

// decodeResult splits a stored payload into the value, the events and
// the input digests Memo stored. ok is false unless the payload decodes
// exactly and its digests name the listed inputs in order; anything
// else is recomputed rather than replayed.
func decodeResult[T any](data []byte, inputs []string) (v T, evs []trace.Event, ds []sweep.Digest, ok bool) {
	v, rest, ok := binenc.ConsumeValue[T](data)
	if !ok {
		return v, nil, nil, false
	}
	if evs, rest, ok = binenc.ConsumeList[trace.Event](rest); !ok {
		return v, nil, nil, false
	}
	if ds, rest, ok = binenc.ConsumeList[sweep.Digest](rest); !ok || len(rest) != 0 || len(ds) != len(inputs) {
		return v, nil, nil, false
	}
	for i := range ds {
		if ds[i].Key != inputs[i] {
			return v, nil, nil, false
		}
	}
	return v, evs, ds, true
}
