package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pargraph/internal/cmdtest"
	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

// repoSpec is a small deterministic coloring run with two file
// artifacts and a recorded stdout hash — enough surface for both
// verification phases to have something to catch.
const repoSpec = "[run]\ncommand = \"coloring\"\nseed = 7\n" +
	"[workload]\ngen = \"gnm\"\nn = 256\nm = 1024\nmachine = \"mta\"\nprocs = 2\n" +
	"[output]\ntrace = \"c.trace.json\"\nattr = \"c.attr.csv\"\nmanifest = \"c.manifest.json\"\n"

// writeManifest runs the spec text in dir (its paths are relative, so
// the run must happen from there) and returns the manifest's absolute
// path.
func writeManifest(t *testing.T, dir, text string) string {
	t.Helper()
	sp, err := spec.Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	runErr := runner.Run(context.Background(), sp, runner.Options{Stdout: io.Discard, Stderr: io.Discard})
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return filepath.Join(dir, sp.Output.Manifest)
}

func TestRoundTrip(t *testing.T) {
	mani := writeManifest(t, t.TempDir(), repoSpec)
	cmdtest.Expect(t, []string{mani},
		"2 on-disk artifact(s) match", "re-run reproduced 2 input(s) and 3 artifact(s) exactly")
}

func TestVerifyOnly(t *testing.T) {
	mani := writeManifest(t, t.TempDir(), repoSpec)
	out := cmdtest.Expect(t, []string{"-verify-only", mani}, "2 on-disk artifact(s) match")
	if strings.Contains(out, "re-run") {
		t.Errorf("-verify-only still re-ran the spec:\n%s", out)
	}
}

func TestCorruptedArtifactFails(t *testing.T) {
	dir := t.TempDir()
	mani := writeManifest(t, dir, repoSpec)
	attr := filepath.Join(dir, "c.attr.csv")
	data, err := os.ReadFile(attr)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(attr, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmdtest.RunError(t, []string{mani}, "c.attr.csv", "sha256")
}

func TestMissingArtifactFails(t *testing.T) {
	dir := t.TempDir()
	mani := writeManifest(t, dir, repoSpec)
	if err := os.Remove(filepath.Join(dir, "c.trace.json")); err != nil {
		t.Fatal(err)
	}
	cmdtest.RunError(t, []string{mani}, "artifact trace")
}

func TestTamperedSpecFails(t *testing.T) {
	dir := t.TempDir()
	mani := writeManifest(t, dir, repoSpec)
	data, err := os.ReadFile(mani)
	if err != nil {
		t.Fatal(err)
	}
	// Change the workload inside the embedded spec without updating the
	// recorded spec hash: the re-run must notice the drift.
	s := string(data)
	if !strings.Contains(s, "n = 256") {
		t.Fatalf("manifest does not embed the spec workload:\n%s", s)
	}
	s = strings.Replace(s, "n = 256", "n = 257", 1)
	if err := os.WriteFile(mani, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
	cmdtest.RunError(t, []string{mani})
}

// TestRelativeInputFile: a manifest whose spec reads a DIMACS file by a
// relative path reproduces from the directory that path resolves in.
func TestRelativeInputFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g.dimacs"), []byte("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mani := writeManifest(t, dir, "[run]\ncommand = \"concomp\"\n"+
		"[workload]\ninput = \"g.dimacs\"\nmachine = \"mta\"\nprocs = 2\n[output]\nmanifest = \"m.json\"\n")
	want := "re-run reproduced 2 input(s) and 1 artifact(s) exactly"
	if out := cmdtest.RunIn(t, dir, "m.json"); !strings.Contains(out, want) {
		t.Errorf("reproduce %s from its directory: output missing %q; got:\n%s", mani, want, out)
	}
}

func TestRejectsUsageErrors(t *testing.T) {
	cmdtest.RunError(t, []string{}, "usage: reproduce")
	cmdtest.RunError(t, []string{filepath.Join(t.TempDir(), "nope.json")})
}
