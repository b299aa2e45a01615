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
// Every run collects its artifacts in memory. RunContext hands them
// back (cmd/serve, perfbench); Run, which the cmds call, writes them in
// one last step, after the whole run succeeded: artifacts bound for
// standard output to Options.Stdout, every other one to its spec path.
//
// When the spec names a manifest ([output] manifest, the cmds'
// -emit-manifest), and always under RunContext, the runner records
// every input the run resolves (through the sweep cache's hook) and
// every artifact it produces, and builds a reproducibility manifest
// (internal/manifest). Reproduce re-runs a manifest's spec and diffs
// the two records (cmd/reproduce).
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
	Stdout io.Writer // where Run prints; defaults to os.Stdout
	Stderr io.Writer // defaults to os.Stderr

	// DumpGraph writes the built graph to a DIMACS file before running
	// (cmd/concomp -out).
	DumpGraph string

	// NoResultCache keeps the input cache but disables whole-result
	// memoization (-no-result-cache): every cell re-simulates even when
	// a cache directory is attached.
	NoResultCache bool

	// CacheStats makes Run print the input- and result-cache
	// hit/miss/byte counters to stderr after its artifacts
	// (-cache-stats); RunContext hands them back in its Result.
	CacheStats bool

	// CacheMaxBytes bounds the cache directory's size; on overflow the
	// oldest entries are pruned (-cache-max-bytes, 0 = unbounded).
	CacheMaxBytes int64

	// CellObserver, when non-nil, receives the wall-clock seconds of
	// every sweep cell the run executes, the one cell of a single-run
	// command included (see harness.Env.CellObserver).
	// Called concurrently from cell goroutines; must be safe for that.
	CellObserver func(seconds float64)
}

// Artifact is one produced output with its rendered bytes retained in
// memory. Name is the artifact's role (report, stdout, trace, attr,
// manifest); Path is where Run writes it, "" meaning standard output.
type Artifact struct {
	Name string
	Path string
	Data []byte
}

// Result is what a run produced: every artifact in the order Run
// writes them, the run's decoded provenance manifest, and the run's own
// cache traffic.
type Result struct {
	Artifacts []Artifact
	// Manifest is the run's reproducibility record (nil for a shard):
	// spec hash, input content keys, artifact hashes, and — when the
	// result cache was consulted — each sweep cell's computed-vs-cache
	// provenance.
	Manifest *manifest.Manifest
	// InputStats / ResultStats are this run's disk-cache counters
	// (zero-valued when the respective store is off).
	InputStats, ResultStats diskcache.Stats

	inputStore, resultStore *diskcache.Store
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

// fileNotes is the stderr line Run prints after writing an artifact of
// each role to its file; a report file gets none.
var fileNotes = map[string]string{
	"trace":    "wrote Chrome trace to %s\n",
	"attr":     "wrote attribution CSV to %s\n",
	"manifest": "wrote manifest to %s\n",
}

// Run executes a validated spec under ctx and writes what it produced,
// in order: each artifact bound for standard output to o.Stdout, each
// other one to its path with a note on o.Stderr, then a figures text
// report's closing "done." line. No artifact is written unless the
// whole run succeeded (Options.DumpGraph's file is no artifact). The
// caller must have called sp.Validate; Run trusts the spec's
// invariants. ctx cancellation stops sweeps at the next cell boundary
// (the cmds wire signal.NotifyContext there).
func Run(ctx context.Context, sp *spec.Spec, o Options) error {
	res, err := run(ctx, sp, &o, sp.Output.Manifest != "")
	if err != nil {
		return err
	}
	for _, a := range res.Artifacts {
		if a.Path == "" {
			if _, err := o.Stdout.Write(a.Data); err != nil {
				return err
			}
			continue
		}
		if err := os.WriteFile(a.Path, a.Data, 0o644); err != nil {
			if a.Name == "manifest" {
				err = fmt.Errorf("writing manifest: %w", err)
			}
			return err
		}
		if note := fileNotes[a.Name]; note != "" {
			fmt.Fprintf(o.Stderr, note, a.Path)
		}
	}
	if sp.Figures.Format == "text" && res.Artifact("report") != nil {
		fmt.Fprintln(o.Stdout, "done.")
	}
	if o.CacheStats {
		cmdutil.PrintCacheStats(o.Stderr, "input", res.inputStore)
		cmdutil.PrintCacheStats(o.Stderr, "result", res.resultStore)
	}
	return nil
}

// RunContext executes a validated spec under ctx and returns its
// artifacts in memory, writing none: the entry point for embedding the
// runner in a long-running process (cmd/serve), where a job's artifacts
// are served back over HTTP rather than landing in the server's working
// directory. The provenance manifest is always built, whether or not
// the spec names one; ctx cancellation stops sweeps at the next cell
// boundary. A [workload] input file is read like Run reads it: a caller
// serving outside clients refuses such specs before the run.
func RunContext(ctx context.Context, sp *spec.Spec, o Options) (*Result, error) {
	return run(ctx, sp, &o, true)
}

// run executes sp, collecting its artifacts, and builds the manifest
// when withManifest is set (a shard builds none). It fills in o's
// default writers.
func run(ctx context.Context, sp *spec.Spec, o *Options, withManifest bool) (*Result, error) {
	if o.Stdout == nil {
		o.Stdout = os.Stdout
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Each run executes in its own harness.Env — no process-global
	// state, so concurrent runs (cmd/serve's job workers) don't see
	// each other's shard, caches, hooks, or trace wiring.
	env := &harness.Env{CellObserver: o.CellObserver, Interrupt: ctx}

	shard, err := sweep.ParseShard(sp.Run.Shard)
	if err != nil {
		return nil, err
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

	rc := &runCtx{sp: sp, o: o, env: env}
	if withManifest && !shard.Active() {
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

	res := &Result{inputStore: inputStore, resultStore: resultStore}
	if rc.mlog != nil {
		m, err := rc.buildManifest()
		if err != nil {
			return nil, err
		}
		data, err := m.Encode()
		if err != nil {
			return nil, err
		}
		rc.keep("manifest", sp.Output.Manifest, data)
		res.Manifest = m
	}
	res.Artifacts = rc.out
	if inputStore != nil {
		res.InputStats = inputStore.Stats()
	}
	if resultStore != nil {
		res.ResultStats = resultStore.Stats()
	}
	return res, nil
}

// runCtx is one run's mutable state: the spec, the output options, the
// run's private execution environment, the manifest input log (nil when
// no manifest was requested), and the artifacts produced so far.
type runCtx struct {
	sp   *spec.Spec
	o    *Options
	env  *harness.Env
	mlog *manifest.Log
	arts []manifest.Artifact
	out  []Artifact
}

// keep retains artifact bytes without recording them in the manifest —
// used for wall-clock outputs no manifest can promise to reproduce, and
// for the manifest itself (which cannot contain its own hash).
func (rc *runCtx) keep(name, path string, data []byte) {
	rc.out = append(rc.out, Artifact{Name: name, Path: path, Data: data})
}

// record retains a produced artifact (already-rendered bytes) and notes
// it for the manifest. Call order defines the artifacts' order, in the
// manifest and on output; each sub-runner records in its fixed role
// order.
func (rc *runCtx) record(name, path string, data []byte) {
	rc.keep(name, path, data)
	if rc.mlog == nil {
		return
	}
	rc.arts = append(rc.arts, manifest.Artifact{
		Name: name, Path: path, SHA256: manifest.HashBytes(data), Bytes: int64(len(data)),
	})
}

// traceArtifacts renders the trace and attribution artifacts the spec
// asks for from the run's recorder (nil: not traced), in that order,
// and records them.
func (rc *runCtx) traceArtifacts(rec *trace.Recorder) error {
	if rec == nil {
		return nil
	}
	if path := rc.sp.Output.Trace; path != "" {
		var b bytes.Buffer
		if err := rec.WriteChromeTrace(&b); err != nil {
			return err
		}
		rc.record("trace", path, b.Bytes())
	}
	if path := rc.sp.Output.Attr; path != "" {
		var b bytes.Buffer
		if err := rec.WriteAttributionCSV(&b); err != nil {
			return err
		}
		rc.record("attr", path, b.Bytes())
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
