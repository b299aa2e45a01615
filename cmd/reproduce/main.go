// Command reproduce checks a reproducibility manifest written by the
// experiment commands' -emit-manifest (or cmd/shardmerge -manifest).
// It verifies in two phases:
//
//  1. The artifacts on disk still hash to what the manifest recorded
//     (artifact paths resolve relative to the manifest's directory;
//     artifacts that went to stdout exist only as hashes and are
//     checked in phase 2).
//  2. The manifest's embedded canonical spec is re-run in a scratch
//     directory and every recomputed input and artifact hash is
//     diffed against the record.
//
// Any mismatch is reported and the exit status is nonzero. A manifest
// whose spec reads input files by relative path must be re-run from
// the directory those paths resolve in; -verify-only skips phase 2.
//
// Usage:
//
//	reproduce fig1.manifest.json
//	reproduce -verify-only fig1.manifest.json
//	reproduce -cache-dir /tmp/pgc fig1.manifest.json   # warm re-run
//
// With -cache-dir (or $PARGRAPH_CACHE) the phase-2 re-run resolves
// inputs and whole sweep-cell results from the cache, which makes
// checking a large manifest fast. Artifact hashes are recomputed from
// the re-run's bytes either way, and every hash is diffed against the
// record. The inputs differ: a warm re-run reports, for each replayed
// result, the input digests stored with it — it never opens those
// inputs — while a cold or -no-result-cache re-run re-hashes every
// input from its bytes. To re-check the inputs themselves, re-run
// without the cache or with -no-result-cache, which keeps the input
// cache but forces every cell to re-simulate.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"pargraph/internal/harness"
	"pargraph/internal/manifest"
	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	verifyOnly := flag.Bool("verify-only", false, "only check the on-disk artifacts against the manifest; skip the re-run")
	cacheDir := flag.String("cache-dir", "", "let the phase-2 re-run consult a content-addressed input/result cache at this directory (default $PARGRAPH_CACHE; empty = off); artifact hashes are recomputed and diffed either way, but a replayed result reports the input digests stored with it instead of re-hashing its inputs (use -no-result-cache to re-hash them)")
	noResult := flag.Bool("no-result-cache", false, "with a cache attached, keep the input cache but force the re-run to re-simulate every cell")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: reproduce [-verify-only] <manifest.json>")
	}
	path := flag.Arg(0)
	m, err := manifest.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}

	failed := false
	fail := func(format string, args ...interface{}) {
		failed = true
		log.Printf(format, args...)
	}

	// Phase 1: the artifacts still on disk.
	base := filepath.Dir(path)
	checked := 0
	for _, a := range m.Artifacts {
		if a.Path == "" {
			continue // went to stdout; phase 2 recomputes its hash
		}
		p := a.Path
		if !filepath.IsAbs(p) {
			p = filepath.Join(base, p)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			fail("artifact %s: %v", a.Name, err)
			continue
		}
		if got := manifest.HashBytes(data); got != a.SHA256 {
			fail("artifact %s (%s): sha256 %s, manifest records %s", a.Name, p, got, a.SHA256)
			continue
		}
		checked++
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("%s: %d on-disk artifact(s) match\n", path, checked)
	if *verifyOnly {
		return
	}

	// Phase 2: re-run the embedded spec in a scratch directory and diff
	// everything the manifest recorded.
	if m.InputSchema != harness.InputSchema {
		log.Fatalf("manifest recorded inputs under schema %q; this build hashes them under %q, so input hashes are not comparable", m.InputSchema, harness.InputSchema)
	}
	sp, err := spec.Parse([]byte(m.Spec))
	if err != nil {
		log.Fatalf("embedded spec: %v", err)
	}
	if err := sp.Validate(); err != nil {
		log.Fatalf("embedded spec: %v", err)
	}
	tmp, err := os.MkdirTemp("", "reproduce-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	sp.Output.Manifest = filepath.Join(tmp, "rerun.manifest.json")
	// CacheDir is an execution field: the spec's canonical form excludes
	// it, so pointing the re-run at a cache cannot move the spec hash.
	sp.Run.CacheDir = *cacheDir

	cwd, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.Chdir(tmp); err != nil {
		log.Fatal(err)
	}
	runErr := runner.Run(sp, runner.Options{Stdout: io.Discard, Stderr: io.Discard, NoResultCache: *noResult})
	if err := os.Chdir(cwd); err != nil {
		log.Fatal(err)
	}
	if runErr != nil {
		log.Fatalf("re-run: %v", runErr)
	}
	m2, err := manifest.ReadFile(sp.Output.Manifest)
	if err != nil {
		log.Fatal(err)
	}

	if m2.SpecSHA256 != m.SpecSHA256 {
		fail("spec hash drifted: re-run %s, manifest records %s", m2.SpecSHA256, m.SpecSHA256)
	}
	if m.GoVersion != m2.GoVersion || m.Commit != m2.Commit {
		// Informational: a different toolchain or commit reproducing the
		// same hashes is the strongest outcome, not an error.
		fmt.Printf("note: recorded by %s commit %s, re-run by %s commit %s\n",
			m.GoVersion, m.Commit, m2.GoVersion, m2.Commit)
	}

	rerunInputs := make(map[string]manifest.Input, len(m2.Inputs))
	for _, in := range m2.Inputs {
		rerunInputs[in.Key] = in
	}
	for _, in := range m.Inputs {
		got, ok := rerunInputs[in.Key]
		switch {
		case !ok:
			fail("input %q: not resolved by the re-run", in.Key)
		case got.SHA256 != in.SHA256 || got.Bytes != in.Bytes:
			fail("input %q: re-run produced %s (%d bytes), manifest records %s (%d bytes)",
				in.Key, got.SHA256, got.Bytes, in.SHA256, in.Bytes)
		}
		delete(rerunInputs, in.Key)
	}
	for key := range rerunInputs {
		fail("input %q: resolved by the re-run but absent from the manifest", key)
	}

	if len(m2.Artifacts) != len(m.Artifacts) {
		fail("re-run produced %d artifact(s), manifest records %d", len(m2.Artifacts), len(m.Artifacts))
	} else {
		for i, a := range m.Artifacts {
			got := m2.Artifacts[i]
			if got.Name != a.Name || got.Path != a.Path {
				fail("artifact %d: re-run produced %s (%q), manifest records %s (%q)", i, got.Name, got.Path, a.Name, a.Path)
				continue
			}
			if got.SHA256 != a.SHA256 || got.Bytes != a.Bytes {
				fail("artifact %s (%q): re-run produced %s (%d bytes), manifest records %s (%d bytes)",
					a.Name, a.Path, got.SHA256, got.Bytes, a.SHA256, a.Bytes)
			}
		}
	}

	if failed {
		os.Exit(1)
	}
	fmt.Printf("%s: re-run reproduced %d input(s) and %d artifact(s) exactly\n", path, len(m.Inputs), len(m.Artifacts))
}
