package runner

import (
	"context"
	"fmt"

	"pargraph/internal/harness"
	"pargraph/internal/manifest"
	"pargraph/internal/spec"
)

// Reproduce re-runs the spec a manifest embeds, in memory through
// RunContext, and diffs the re-run's record against the manifest: the
// spec hash, every input and every artifact. It returns the re-run's
// manifest and one line per mismatch (none: reproduced exactly). An
// error means the manifest could not be re-run at all: inputs recorded
// under another schema, an embedded spec that does not parse or
// validate, or a failed run.
//
// The re-run consults the cache at cacheDir ("" = $PARGRAPH_CACHE, then
// off), or only its input store with o.NoResultCache. A relative
// [workload] input path resolves against the working directory.
func Reproduce(ctx context.Context, m *manifest.Manifest, cacheDir string, o Options) (*manifest.Manifest, []string, error) {
	if m.InputSchema != harness.InputSchema {
		return nil, nil, fmt.Errorf("manifest recorded inputs under schema %q; this build hashes them under %q, so input hashes are not comparable", m.InputSchema, harness.InputSchema)
	}
	sp, err := spec.Parse([]byte(m.Spec))
	if err != nil {
		return nil, nil, fmt.Errorf("embedded spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, nil, fmt.Errorf("embedded spec: %w", err)
	}
	// CacheDir is an execution field: the spec's canonical form excludes
	// it, so pointing the re-run at a cache cannot move the spec hash.
	sp.Run.CacheDir = cacheDir
	res, err := RunContext(ctx, sp, o)
	if err != nil {
		return nil, nil, fmt.Errorf("re-run: %w", err)
	}
	got := res.Manifest

	var diffs []string
	diff := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }
	if got.SpecSHA256 != m.SpecSHA256 {
		diff("spec hash drifted: re-run %s, manifest records %s", got.SpecSHA256, m.SpecSHA256)
	}

	rerun := make(map[string]manifest.Input, len(got.Inputs))
	for _, in := range got.Inputs {
		rerun[in.Key] = in
	}
	recorded := make(map[string]bool, len(m.Inputs))
	for _, in := range m.Inputs {
		recorded[in.Key] = true
		r, ok := rerun[in.Key]
		switch {
		case !ok:
			diff("input %q: not resolved by the re-run", in.Key)
		case r.SHA256 != in.SHA256 || r.Bytes != in.Bytes:
			diff("input %q: re-run produced %s (%d bytes), manifest records %s (%d bytes)",
				in.Key, r.SHA256, r.Bytes, in.SHA256, in.Bytes)
		}
	}
	for _, in := range got.Inputs {
		if !recorded[in.Key] {
			diff("input %q: resolved by the re-run but absent from the manifest", in.Key)
		}
	}

	if len(got.Artifacts) != len(m.Artifacts) {
		diff("re-run produced %d artifact(s), manifest records %d", len(got.Artifacts), len(m.Artifacts))
		return got, diffs, nil
	}
	for i, a := range m.Artifacts {
		r := got.Artifacts[i]
		switch {
		case r.Name != a.Name || r.Path != a.Path:
			diff("artifact %d: re-run produced %s (%q), manifest records %s (%q)", i, r.Name, r.Path, a.Name, a.Path)
		case r.SHA256 != a.SHA256 || r.Bytes != a.Bytes:
			diff("artifact %s (%q): re-run produced %s (%d bytes), manifest records %s (%d bytes)",
				a.Name, a.Path, r.SHA256, r.Bytes, a.SHA256, a.Bytes)
		}
	}
	return got, diffs, nil
}
