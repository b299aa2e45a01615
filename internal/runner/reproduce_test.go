package runner

import (
	"context"
	"io"
	"strings"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/spec"
)

// TestReproduce: a fresh manifest re-runs with no mismatch, and the
// same manifest with one artifact hash altered gives exactly one.
func TestReproduce(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	sp, err := spec.Parse([]byte("[run]\ncommand = \"coloring\"\nseed = 7\n" +
		"[workload]\nn = 256\nm = 1024\nmachine = \"mta\"\nprocs = 2\n" +
		"[output]\ntrace = \"c.trace.json\"\nattr = \"c.attr.csv\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	o := Options{Stdout: io.Discard, Stderr: io.Discard}
	res, err := RunContext(context.Background(), sp, o)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Manifest
	if len(m.Inputs) == 0 || len(m.Artifacts) != 3 {
		t.Fatalf("manifest records %d inputs and %d artifacts, want some and 3", len(m.Inputs), len(m.Artifacts))
	}

	got, diffs, err := Reproduce(context.Background(), m, "", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("fresh manifest: mismatches %q", diffs)
	}
	if got.SpecSHA256 != m.SpecSHA256 {
		t.Errorf("re-run spec hash %s, manifest %s", got.SpecSHA256, m.SpecSHA256)
	}

	m.Artifacts[1].SHA256 = strings.Repeat("0", len(m.Artifacts[1].SHA256))
	if _, diffs, err = Reproduce(context.Background(), m, "", o); err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !strings.HasPrefix(diffs[0], "artifact attr (\"c.attr.csv\"): re-run produced ") {
		t.Errorf("altered attr hash: mismatches %q, want exactly the attr one", diffs)
	}
}
