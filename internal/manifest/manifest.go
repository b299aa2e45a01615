// Package manifest records what a run actually consumed and produced,
// so the run can be re-executed and checked: the canonical experiment
// spec and its hash (internal/spec), the toolchain and commit that ran
// it, the content hash of every input its cells consumed — hashed by
// the sweep cache when a cell resolved the input, or replayed from the
// digests stored with a memoized result — and the content hash of
// every artifact written. cmd/reproduce replays a manifest;
// cmd/shardmerge merges the manifests of a sharded run, failing loudly
// if the shards disagree on the spec or on any input's content.
//
// A manifest is deliberately execution-blind: workers, jobs, and
// sharding never appear (the spec's canonical form excludes them), so
// the same spec produces byte-identical manifests however the run was
// scheduled. That identity is load-bearing — it is what lets a merged
// shard run vouch for the artifacts of an unsharded one. The one
// exception is the results section: when a run consults the result
// cache (internal/harness's result memoization), each sweep cell's
// provenance — computed, or replayed from the cache — is recorded
// there, and a warm run's manifest differs from a cold run's in
// exactly that section. Everything the manifest promises about WHAT
// was produced (spec hash, input hashes, artifact hashes) remains
// identical; only the record of HOW each cell's result was obtained
// varies.
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"pargraph/internal/cmdutil"
)

// Schema versions the manifest format; readers refuse anything else.
const Schema = "pargraph-manifest-v1"

// maxManifestBytes caps what Decode will read, bounding allocation on
// hostile input.
const maxManifestBytes = 64 << 20

// Input is one cache-resolved input: its sweep key (see
// internal/sweep's key constructors) and the hash of its serialized
// content.
type Input struct {
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Artifact is one produced output. Name is the artifact's role
// (report, trace, attr, stdout); Path is where it was written,
// relative paths being relative to the manifest's own directory, and
// "" meaning the artifact went to standard output and exists only as
// its hash.
type Artifact struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Result is one sweep cell's result provenance: the result-cache key
// that identifies the cell's configuration and inputs, and whether this
// run computed the result or replayed it from the cache.
type Result struct {
	Key    string `json:"key"`
	Source string `json:"source"` // "computed" or "cache"
}

// Manifest is the complete record of one run.
type Manifest struct {
	Schema     string `json:"schema"`
	SpecSHA256 string `json:"spec_sha256"`
	// Spec is the canonical spec text itself, so a manifest alone is
	// enough to re-run the experiment.
	Spec        string     `json:"spec"`
	GoVersion   string     `json:"go_version"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	Commit      string     `json:"commit"`
	InputSchema string     `json:"input_schema"`
	Inputs      []Input    `json:"inputs"`
	Artifacts   []Artifact `json:"artifacts"`
	// Results is present only when result memoization was active; see
	// the package comment on its execution-dependence.
	Results []Result `json:"results,omitempty"`
}

// New starts a manifest for the given canonical spec, stamped with the
// running toolchain, GOMAXPROCS, and the commit baked in by the build
// (cmdutil.Version).
func New(canonicalSpec []byte, specHash, inputSchema string) *Manifest {
	return &Manifest{
		Schema:      Schema,
		SpecSHA256:  specHash,
		Spec:        string(canonicalSpec),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Commit:      cmdutil.Version(),
		InputSchema: inputSchema,
	}
}

// HashBytes is the hex SHA-256 all manifest content hashes use.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// AddArtifact records a produced artifact from its rendered bytes.
func (m *Manifest) AddArtifact(name, path string, data []byte) {
	m.Artifacts = append(m.Artifacts, Artifact{
		Name: name, Path: path, SHA256: HashBytes(data), Bytes: int64(len(data)),
	})
}

// Encode renders the manifest as stable, indented JSON: inputs sorted
// by key, artifacts in the order they were added (the runner adds them
// in a fixed role order), fields in declaration order. Equal manifests
// encode to equal bytes.
func (m *Manifest) Encode() ([]byte, error) {
	sort.Slice(m.Inputs, func(a, b int) bool { return m.Inputs[a].Key < m.Inputs[b].Key })
	sort.Slice(m.Results, func(a, b int) bool { return m.Results[a].Key < m.Results[b].Key })
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: encoding: %w", err)
	}
	return append(data, '\n'), nil
}

// Decode parses and schema-checks a manifest.
func Decode(data []byte) (*Manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("manifest: %d bytes exceeds the %d-byte cap", len(data), maxManifestBytes)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: decoding: %w", err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("manifest: schema %q, this build understands %q", m.Schema, Schema)
	}
	return &m, nil
}

// WriteFile encodes the manifest into path.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads and schema-checks the manifest at path.
func ReadFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Merge combines the manifests of a sharded run into the manifest the
// unsharded run would have produced (minus artifacts, which the merger
// renders and records itself). Shards must agree on the spec hash, the
// input schema, and the content of every input key they share; any
// disagreement is an error, never a preference — two shards that
// generated different bytes for one input key have diverged and their
// results cannot be combined.
func Merge(parts []*Manifest) (*Manifest, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("manifest: nothing to merge")
	}
	first := parts[0]
	out := &Manifest{
		Schema:      Schema,
		SpecSHA256:  first.SpecSHA256,
		Spec:        first.Spec,
		GoVersion:   first.GoVersion,
		GOMAXPROCS:  first.GOMAXPROCS,
		Commit:      first.Commit,
		InputSchema: first.InputSchema,
	}
	inputs := make(map[string]Input)
	for i, p := range parts {
		if p.SpecSHA256 != first.SpecSHA256 {
			return nil, fmt.Errorf("manifest: shard %d ran spec %s, shard 0 ran %s", i, p.SpecSHA256, first.SpecSHA256)
		}
		if p.Spec != first.Spec {
			return nil, fmt.Errorf("manifest: shard %d embeds different spec text than shard 0 under the same hash", i)
		}
		if p.InputSchema != first.InputSchema {
			return nil, fmt.Errorf("manifest: shard %d used input schema %q, shard 0 used %q", i, p.InputSchema, first.InputSchema)
		}
		for _, in := range p.Inputs {
			if prev, ok := inputs[in.Key]; ok {
				if prev.SHA256 != in.SHA256 || prev.Bytes != in.Bytes {
					return nil, fmt.Errorf("manifest: shards disagree on input %q: %s (%d bytes) vs %s (%d bytes)",
						in.Key, prev.SHA256, prev.Bytes, in.SHA256, in.Bytes)
				}
				continue
			}
			inputs[in.Key] = in
		}
	}
	for _, in := range inputs {
		out.Inputs = append(out.Inputs, in)
	}
	sort.Slice(out.Inputs, func(a, b int) bool { return out.Inputs[a].Key < out.Inputs[b].Key })

	// Result provenance unions across shards. Shards own disjoint
	// cells, so a key normally appears once; should two shards ever
	// report one key, "computed" wins — it is the stronger statement.
	results := make(map[string]Result)
	for _, p := range parts {
		for _, r := range p.Results {
			if prev, ok := results[r.Key]; ok && prev.Source == "computed" {
				continue
			}
			results[r.Key] = r
		}
	}
	for _, r := range results {
		out.Results = append(out.Results, r)
	}
	sort.Slice(out.Results, func(a, b int) bool { return out.Results[a].Key < out.Results[b].Key })
	return out, nil
}

// Log collects the inputs a run resolves, as digests: hashed once by
// the sweep cache where the input's bytes were in hand, or replayed
// from a memoized result that stored them. Concurrent cells may record
// inputs at once, and one key may be recorded repeatedly — each key is
// recorded once, and a key resurfacing with different content is
// latched as an error (a nondeterministic generator, a key missing one
// of its parameters, or a result entry whose stored digest disagrees
// with the input it names) that the runner surfaces after the run.
type Log struct {
	mu  sync.Mutex
	m   map[string]Input
	res map[string]Result
	err error
}

// Add records one input's digest.
func (l *Log) Add(in Input) {
	key := in.Key
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[string]Input)
	}
	if prev, ok := l.m[key]; ok {
		if l.err == nil && (prev.SHA256 != in.SHA256 || prev.Bytes != in.Bytes) {
			l.err = fmt.Errorf("manifest: input %q resolved twice with different content (%s vs %s); its key is missing a parameter or its generator is nondeterministic",
				key, prev.SHA256, in.SHA256)
		}
		return
	}
	l.m[key] = in
}

// AddResult records one sweep cell's result provenance; its signature
// matches the harness result hook. Each key is recorded once —
// within one process a cell runs exactly once, so a repeat is benign.
func (l *Log) AddResult(key string, hit bool) {
	src := "computed"
	if hit {
		src = "cache"
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.res == nil {
		l.res = make(map[string]Result)
	}
	if _, ok := l.res[key]; ok {
		return
	}
	l.res[key] = Result{Key: key, Source: src}
}

// Results returns the recorded result provenance sorted by key.
func (l *Log) Results() []Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Result, 0, len(l.res))
	for _, r := range l.res {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// Inputs returns the recorded inputs sorted by key, or the latched
// conflict.
func (l *Log) Inputs() ([]Input, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	out := make([]Input, 0, len(l.m))
	for _, in := range l.m {
		out = append(out, in)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out, nil
}
