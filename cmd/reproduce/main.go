// Command reproduce checks a reproducibility manifest written by the
// experiment commands' -emit-manifest.
// It verifies in two phases:
//
//  1. The artifacts on disk still hash to what the manifest recorded
//     (artifact paths resolve relative to the manifest's directory;
//     artifacts that went to stdout exist only as hashes and are
//     checked in phase 2).
//  2. The manifest's embedded canonical spec is re-run in memory
//     (runner.Reproduce), writing no file, and every recomputed input
//     and artifact hash is diffed against the record.
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
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"pargraph/internal/manifest"
	"pargraph/internal/runner"
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

	// Phase 2: re-run the embedded spec and diff everything the
	// manifest recorded.
	m2, diffs, err := runner.Reproduce(context.Background(), m, *cacheDir,
		runner.Options{Stdout: io.Discard, Stderr: io.Discard, NoResultCache: *noResult})
	if err != nil {
		log.Fatal(err)
	}
	if m.GoVersion != m2.GoVersion || m.Commit != m2.Commit {
		// Informational: a different toolchain or commit reproducing the
		// same hashes is the strongest outcome, not an error.
		fmt.Printf("note: recorded by %s commit %s, re-run by %s commit %s\n",
			m.GoVersion, m.Commit, m2.GoVersion, m2.Commit)
	}
	for _, d := range diffs {
		fail("%s", d)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("%s: re-run reproduced %d input(s) and %d artifact(s) exactly\n", path, len(m.Inputs), len(m.Artifacts))
}
