// Package runner executes a validated experiment spec
// (internal/spec). It is the single execution path behind cmd/figures,
// cmd/profile, cmd/coloring, cmd/listrank, and cmd/concomp: the cmds
// translate flags into a spec and call Run, so a spec-driven run and a
// flag-driven run of the same experiment go through byte-identical
// rendering code — artifact equality between the two is structural,
// not tested-for. Every command executes as harness sweeps; the
// single-run commands (coloring, listrank, concomp) are one-cell
// sweeps (harness.Env.RunCell).
//
// When the spec names a manifest ([output] manifest, the cmds'
// -emit-manifest), the runner records every input the run resolves
// (through the sweep cache's hook) and every artifact it writes, and
// emits a reproducibility manifest (internal/manifest).
//
// A sharded run ([run] shard = "i/N") computes only the cells it owns
// and stores them in the result cache; it renders nothing. The same
// spec run without shard on the same cache directory replays those
// cells (computing any no shard stored) and writes the artifacts and
// manifest an unsharded run writes.
package runner

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"pargraph/internal/cmdutil"
	"pargraph/internal/diskcache"
	"pargraph/internal/harness"
	"pargraph/internal/manifest"
	"pargraph/internal/spec"
	"pargraph/internal/sweep"
	"pargraph/internal/trace"
)

// Options carries the execution extras that live outside the spec:
// where output goes, and the flag-only toggles individual cmds keep.
type Options struct {
	Stdout io.Writer // defaults to os.Stdout
	Stderr io.Writer // defaults to os.Stderr

	// DumpGraph writes the built graph to a DIMACS file before running
	// (cmd/concomp -out).
	DumpGraph string

	// NoResultCache keeps the input cache but disables whole-result
	// memoization (-no-result-cache): every cell re-simulates even when
	// a cache directory is attached.
	NoResultCache bool

	// CacheStats prints the input- and result-cache hit/miss/byte
	// counters to stderr after the run (-cache-stats).
	CacheStats bool

	// CacheMaxBytes bounds the cache directory's size; on overflow the
	// oldest entries are pruned (-cache-max-bytes, 0 = unbounded).
	CacheMaxBytes int64

	// Interrupt, when non-nil, cancels a Run at the next sweep-cell
	// boundary (the cmds wire signal.NotifyContext here). RunContext's
	// ctx takes precedence; this field exists for the file-writing Run
	// path, which has no context parameter.
	Interrupt context.Context

	// CellObserver, when non-nil, receives the wall-clock seconds of
	// every sweep cell the run executes, the one cell of a single-run
	// command included (see harness.Env.CellObserver).
	// Called concurrently from cell goroutines; must be safe for that.
	CellObserver func(seconds float64)
}

// Artifact is one produced output with its rendered bytes retained in
// memory. Name is the artifact's role (report, stdout, trace, attr,
// manifest); Path is where the spec would have written it, "" meaning
// it would have gone to standard output.
type Artifact struct {
	Name string
	Path string
	Data []byte
}

// Result is what a collected run (RunContext) hands back: every
// artifact the CLI would have written, the run's decoded provenance
// manifest, and the run's own cache traffic.
type Result struct {
	Artifacts []Artifact
	// Manifest is the run's reproducibility record (always built for
	// collected runs): spec hash, input content keys, artifact hashes,
	// and — when the result cache was consulted — each sweep cell's
	// computed-vs-cache provenance.
	Manifest *manifest.Manifest
	// InputStats / ResultStats are this run's disk-cache counters
	// (zero-valued when the respective store is off).
	InputStats, ResultStats diskcache.Stats
}

// Artifact returns the artifact with the given role name, or nil.
func (r *Result) Artifact(name string) *Artifact {
	for i := range r.Artifacts {
		if r.Artifacts[i].Name == name {
			return &r.Artifacts[i]
		}
	}
	return nil
}

// Run executes a validated spec. The caller must have called
// sp.Validate; Run trusts the spec's invariants. Cancellation follows
// Options.Interrupt (the cmds wire signal.NotifyContext there).
func Run(sp *spec.Spec, o Options) error {
	_, err := run(o.Interrupt, sp, o, false)
	return err
}

// RunContext executes a validated spec under ctx and collects every
// artifact in memory instead of writing files: the entry point for
// embedding the runner in a long-running process (cmd/serve), where a
// job's artifacts are served back over HTTP rather than landing in the
// server's working directory — a client-supplied spec never touches the
// server's filesystem outside the cache directory: a spec naming a
// [workload] input file is rejected before anything is opened. The
// provenance manifest is always built, whether or not the spec names
// one; ctx cancellation stops sweeps at the next cell boundary.
func RunContext(ctx context.Context, sp *spec.Spec, o Options) (*Result, error) {
	return run(ctx, sp, o, true)
}

func run(ctx context.Context, sp *spec.Spec, o Options, collect bool) (*Result, error) {
	if o.Stdout == nil {
		o.Stdout = os.Stdout
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	if collect && o.DumpGraph != "" {
		return nil, fmt.Errorf("collected runs write no files; -out is not available")
	}
	if collect && sp.Workload.Input != "" {
		return nil, fmt.Errorf("collected runs read no files; [workload] input is not available")
	}

	// Each run executes in its own harness.Env — no process-global
	// state, so concurrent runs (cmd/serve's job workers) don't see
	// each other's shard, caches, hooks, or trace wiring.
	env := &harness.Env{CellObserver: o.CellObserver}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		env.Interrupt = ctx
	}

	shard, err := sweep.ParseShard(sp.Run.Shard)
	if err != nil {
		return nil, err
	}
	if collect && shard.Active() {
		return nil, fmt.Errorf("sharded runs write no artifacts; collected runs cannot shard")
	}
	env.Shard = shard
	if env.HostWorkers, err = cmdutil.ResolveWorkers(sp.Run.Workers); err != nil {
		return nil, err
	}
	if env.Jobs, err = cmdutil.ResolveJobs(sp.Run.Jobs); err != nil {
		return nil, err
	}

	// Every command shares one cache directory under two schemas: the
	// input store (generated lists/graphs/references) and the result
	// store (whole sweep-cell outcomes, keyed on the cost-model schema
	// version plus the cell's configuration and input content keys).
	// A directory that cannot be opened costs the run its caching, not
	// the run: one warning, then both stores off, as if none was named.
	// A shard stores its cells there and nowhere else, so it fails.
	inputStore, err := cmdutil.OpenCache(sp.Run.CacheDir, harness.InputSchema)
	if err != nil {
		err = fmt.Errorf("opening input cache: %w", err)
	}
	var resultStore *diskcache.Store
	if err == nil && !o.NoResultCache {
		if resultStore, err = cmdutil.OpenCache(sp.Run.CacheDir, harness.ResultSchema); err != nil {
			err = fmt.Errorf("opening result cache: %w", err)
		}
	}
	if err != nil {
		if shard.Active() {
			return nil, err
		}
		fmt.Fprintf(o.Stderr, "warning: %v; running without the cache\n", err)
		inputStore, resultStore = nil, nil
	}
	env.CacheStore = inputStore
	env.ResultStore = resultStore
	if shard.Active() && resultStore == nil {
		return nil, fmt.Errorf("-shard stores its cells in the result cache: it needs -cache-dir (or $%s) and no -no-result-cache", cmdutil.CacheEnv)
	}
	if o.CacheMaxBytes > 0 {
		if inputStore != nil {
			inputStore.SetMaxBytes(o.CacheMaxBytes)
		}
		if resultStore != nil {
			resultStore.SetMaxBytes(o.CacheMaxBytes)
		}
	}

	rc := &runCtx{sp: sp, o: &o, collect: collect, env: env}
	if (sp.Output.Manifest != "" || collect) && !shard.Active() {
		rc.mlog = &manifest.Log{}
		env.InputHook = func(d sweep.Digest) { rc.mlog.Add(manifest.Input(d)) }
		env.ResultHook = rc.mlog.AddResult
	}

	switch sp.Run.Command {
	case spec.CmdFigures:
		err = rc.runFigures()
	case spec.CmdProfile:
		err = rc.runProfile()
	case spec.CmdColoring:
		err = rc.runColoring()
	case spec.CmdListrank:
		err = rc.runListrank()
	default:
		err = rc.runConcomp()
	}
	if err != nil {
		return nil, err
	}

	if shard.Active() {
		fmt.Fprintf(o.Stderr, "shard %s: stored its cells in the result cache at %s; rerun without -shard on that cache directory to write the artifacts\n", shard, resultStore.Dir())
	}

	var result *Result
	if collect {
		result = &Result{}
	}
	if rc.mlog != nil {
		m, err := rc.buildManifest()
		if err != nil {
			return nil, err
		}
		if collect {
			data, err := m.Encode()
			if err != nil {
				return nil, err
			}
			rc.keep("manifest", sp.Output.Manifest, data)
			result.Manifest = m
		} else {
			if err := m.WriteFile(sp.Output.Manifest); err != nil {
				return nil, fmt.Errorf("writing manifest: %w", err)
			}
			fmt.Fprintf(o.Stderr, "wrote manifest to %s\n", sp.Output.Manifest)
		}
	}
	if collect {
		result.Artifacts = rc.out
		if inputStore != nil {
			result.InputStats = inputStore.Stats()
		}
		if resultStore != nil {
			result.ResultStats = resultStore.Stats()
		}
	}

	if o.CacheStats {
		cmdutil.PrintCacheStats(o.Stderr, "input", inputStore)
		cmdutil.PrintCacheStats(o.Stderr, "result", resultStore)
	}
	return result, nil
}

// runCtx is one run's mutable state: the spec, the output options, the
// run's private execution environment, the manifest input log (nil when
// no manifest was requested), and the artifacts recorded so far. With
// collect set, rendered artifact bytes are retained in out instead of
// being written to their spec paths.
type runCtx struct {
	sp      *spec.Spec
	o       *Options
	env     *harness.Env
	mlog    *manifest.Log
	arts    []manifest.Artifact
	collect bool
	out     []Artifact
}

// keep retains artifact bytes for the in-memory result without
// recording them in the manifest — used for wall-clock outputs no
// manifest can promise to reproduce, and for the manifest itself (which
// cannot contain its own hash).
func (rc *runCtx) keep(name, path string, data []byte) {
	if rc.collect {
		rc.out = append(rc.out, Artifact{Name: name, Path: path, Data: data})
	}
}

// record notes a produced artifact (already-rendered bytes) for the
// manifest and, when collecting, the in-memory result. Call order
// defines the manifest's artifact order; each sub-runner records in its
// fixed role order.
func (rc *runCtx) record(name, path string, data []byte) {
	rc.keep(name, path, data)
	if rc.mlog == nil {
		return
	}
	rc.arts = append(rc.arts, manifest.Artifact{
		Name: name, Path: path, SHA256: manifest.HashBytes(data), Bytes: int64(len(data)),
	})
}

// emit delivers one file-bound artifact: written to its path (unless
// the run collects artifacts in memory, where nothing touches the
// filesystem), noted on stderr with note ("wrote ... to %s\n"), and
// recorded. Artifacts bound for stdout don't come through here — their
// callers write o.Stdout and call record directly.
func (rc *runCtx) emit(name, path string, data []byte, note string) error {
	if !rc.collect {
		if err := writeFile(path, data); err != nil {
			return err
		}
		if note != "" {
			fmt.Fprintf(rc.o.Stderr, note, path)
		}
	}
	rc.record(name, path, data)
	return nil
}

// traceArtifacts renders and writes the trace and attribution artifacts
// the spec asks for from the run's recorder (nil: not traced), in that
// order, recording them in the manifest.
func (rc *runCtx) traceArtifacts(rec *trace.Recorder) error {
	if rec == nil {
		return nil
	}
	if path := rc.sp.Output.Trace; path != "" {
		var b bytes.Buffer
		if err := rec.WriteChromeTrace(&b); err != nil {
			return err
		}
		if err := rc.emit("trace", path, b.Bytes(), "wrote Chrome trace to %s\n"); err != nil {
			return err
		}
	}
	if path := rc.sp.Output.Attr; path != "" {
		var b bytes.Buffer
		if err := rec.WriteAttributionCSV(&b); err != nil {
			return err
		}
		if err := rc.emit("attr", path, b.Bytes(), "wrote attribution CSV to %s\n"); err != nil {
			return err
		}
	}
	return nil
}

// buildManifest assembles the run's manifest from the input log and
// the recorded artifacts.
func (rc *runCtx) buildManifest() (*manifest.Manifest, error) {
	m := manifest.New(rc.sp.Canonical(), rc.sp.Hash(), harness.InputSchema)
	ins, err := rc.mlog.Inputs()
	if err != nil {
		return nil, err
	}
	m.Inputs = ins
	m.Artifacts = rc.arts
	m.Results = rc.mlog.Results()
	return m, nil
}

// writeFile writes rendered artifact bytes to path.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
