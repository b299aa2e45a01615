package runner

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/diskcache"
	"pargraph/internal/harness"
	"pargraph/internal/manifest"
	"pargraph/internal/sim"
)

// parseCacheStats extracts hits and misses from one store's -cache-stats
// line on stderr, failing the test if the line is absent.
func parseCacheStats(t *testing.T, stderr, name string) (hits, misses int) {
	t.Helper()
	re := regexp.MustCompile(name + ` cache \([^)]*\): hits=(\d+) misses=(\d+)`)
	m := re.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no %s cache stats on stderr:\n%s", name, stderr)
	}
	hits, _ = strconv.Atoi(m[1])
	misses, _ = strconv.Atoi(m[2])
	return hits, misses
}

// TestWarmRunIsByteIdenticalAndSkipsSimulation is the result cache's
// core guarantee: a second run of the same spec against the same cache
// directory produces byte-identical output without simulating a single
// cell — every cell replays from the store, which the manifest's result
// provenance and the store's own counters both attest. The warm run
// opens no input either: its manifest records the input digests stored
// with the results, identical to the cold run's.
func TestWarmRunIsByteIdenticalAndSkipsSimulation(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")

	cold := loadTestSpec(t, dir, "cold.json")
	cold.Run.CacheDir = cache
	var coldOut bytes.Buffer
	if err := Run(context.Background(), cold, Options{Stdout: &coldOut, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}

	warm := loadTestSpec(t, dir, "warm.json")
	warm.Run.CacheDir = cache
	var warmOut, warmErr bytes.Buffer
	if err := Run(context.Background(), warm, Options{Stdout: &warmOut, Stderr: &warmErr, CacheStats: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldOut.Bytes(), warmOut.Bytes()) {
		t.Errorf("warm run output differs from cold:\n%s\nvs\n%s", warmOut.Bytes(), coldOut.Bytes())
	}

	mc, err := manifest.ReadFile(cold.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := manifest.ReadFile(warm.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if mc.SpecSHA256 != mw.SpecSHA256 {
		t.Errorf("spec hash drifted between cold (%s) and warm (%s)", mc.SpecSHA256, mw.SpecSHA256)
	}
	if len(mc.Inputs) == 0 {
		t.Fatal("cold manifest records no inputs")
	}
	if !reflect.DeepEqual(mc.Inputs, mw.Inputs) {
		t.Errorf("warm manifest inputs differ from cold:\n%+v\nvs\n%+v", mw.Inputs, mc.Inputs)
	}
	if len(mc.Results) == 0 {
		t.Fatal("cold manifest records no result provenance")
	}
	for _, r := range mc.Results {
		if r.Source != "computed" {
			t.Errorf("cold run recorded %q as %q", r.Key, r.Source)
		}
	}
	if len(mw.Results) != len(mc.Results) {
		t.Errorf("warm run recorded %d results, cold recorded %d", len(mw.Results), len(mc.Results))
	}
	for _, r := range mw.Results {
		if r.Source != "cache" {
			t.Errorf("warm run re-simulated cell %q", r.Key)
		}
	}

	// Zero cells re-simulated and zero inputs read, by the stores' own
	// counters.
	hits, misses := parseCacheStats(t, warmErr.String(), "result")
	if misses != 0 || hits == 0 {
		t.Errorf("warm run result cache: hits=%d misses=%d, want every cell a hit", hits, misses)
	}
	if hits, misses := parseCacheStats(t, warmErr.String(), "input"); hits != 0 || misses != 0 {
		t.Errorf("warm run input cache: hits=%d misses=%d, want no lookups", hits, misses)
	}
}

// TestNoResultCacheForcesRecompute: the escape hatch keeps the input
// cache but re-simulates every cell, still byte-identically.
func TestNoResultCacheForcesRecompute(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")

	cold := loadTestSpec(t, dir, "cold.json")
	cold.Run.CacheDir = cache
	var coldOut bytes.Buffer
	if err := Run(context.Background(), cold, Options{Stdout: &coldOut, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}

	off := loadTestSpec(t, dir, "off.json")
	off.Run.CacheDir = cache
	var offOut, offErr bytes.Buffer
	if err := Run(context.Background(), off, Options{Stdout: &offOut, Stderr: &offErr, CacheStats: true, NoResultCache: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldOut.Bytes(), offOut.Bytes()) {
		t.Error("-no-result-cache run output differs from the cold run")
	}
	if !strings.Contains(offErr.String(), "result cache: off") {
		t.Errorf("stats did not report the result cache off:\n%s", offErr.String())
	}
	m, err := manifest.ReadFile(off.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Results {
		if r.Source != "computed" {
			t.Errorf("with the result cache off, cell %q claims source %q", r.Key, r.Source)
		}
	}
}

// TestUnopenableCacheDirRunsUncached: a cache directory that cannot be
// opened (a regular file in its place) costs the run its caching, not
// the run. It warns once on stderr naming the store, then writes the
// same stdout, stderr and manifest inputs as a run with no cache. A
// shard, whose only product is its result-cache entries, still fails
// with the open error before any cell runs.
func TestUnopenableCacheDirRunsUncached(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const warning = "warning: opening input cache: diskcache: mkdir " // the rest names the OS error
	man := filepath.Join(dir, "m.json")
	for _, text := range []string{
		testSpec,
		"[run]\ncommand = \"listrank\"\n[workload]\nn = 1024\nmachine = \"mta\"\nprocs = 2\n",
	} {
		plain := runWithStats(t, parseSpec(t, text, man, ""))
		broken := runWithStats(t, parseSpec(t, text, man, file))
		first, rest, _ := strings.Cut(broken.stderr, "\n")
		if !strings.HasPrefix(first, warning) || !strings.HasSuffix(first, "; running without the cache") {
			t.Errorf("first stderr line = %q, want the input-cache warning", first)
		}
		if rest != plain.stderr {
			t.Errorf("stderr after the warning:\n%s\nwant the uncached run's:\n%s", rest, plain.stderr)
		}
		if !bytes.Equal(broken.stdout, plain.stdout) {
			t.Errorf("stdout differs from the uncached run:\n%s\nvs\n%s", broken.stdout, plain.stdout)
		}
		if len(plain.manifest.Inputs) == 0 || !reflect.DeepEqual(broken.manifest.Inputs, plain.manifest.Inputs) {
			t.Errorf("manifest inputs %+v, want the uncached run's %+v", broken.manifest.Inputs, plain.manifest.Inputs)
		}
	}

	sp := parseSpec(t, shardSpec, "", file)
	sp.Run.Shard = "0/2"
	var cells atomic.Int32
	var out bytes.Buffer
	err := Run(context.Background(), sp, Options{Stdout: &out, Stderr: &out, CellObserver: func(float64) { cells.Add(1) }})
	if err == nil || !strings.HasPrefix(err.Error(), "opening input cache: diskcache: mkdir ") {
		t.Fatalf("sharded run on an unopenable cache: err = %v, want the open error", err)
	}
	if n := cells.Load(); n != 0 || out.Len() != 0 {
		t.Errorf("the failed shard ran %d cells and wrote %q", n, out.String())
	}
}

// TestResultKeysPinSchemaVersion: every result key a run records must
// carry sim.CostSchemaVersion and harness.InputSchema, and bumping
// either must change the address so stale entries simply stop being
// found.
func TestResultKeysPinSchemaVersion(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	sp := loadTestSpec(t, dir, "m.json")
	sp.Run.CacheDir = filepath.Join(dir, "cache")
	if err := Run(context.Background(), sp, Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.ReadFile(sp.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Results) == 0 {
		t.Fatal("no result provenance recorded")
	}
	prefix := fmt.Sprintf("result/c%d/", sim.CostSchemaVersion)
	inPrefix := fmt.Sprintf("%s%d:%s/", prefix, len(harness.InputSchema), harness.InputSchema)
	const bumpedSchema = "pargraph-inputs-bumped"
	store, err := diskcache.Open(sp.Run.CacheDir, harness.ResultSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Results {
		if !strings.HasPrefix(r.Key, prefix) {
			t.Errorf("result key %q lacks the cost-schema prefix %q", r.Key, prefix)
		}
		if !strings.HasPrefix(r.Key, inPrefix) {
			t.Errorf("result key %q lacks the input-schema prefix %q", r.Key, inPrefix)
		}
		if _, ok := store.Get(r.Key); !ok {
			t.Errorf("entry for %q missing from the result store", r.Key)
		}
		bumped := strings.Replace(r.Key, prefix, fmt.Sprintf("result/c%d/", sim.CostSchemaVersion+1), 1)
		if _, ok := store.Get(bumped); ok {
			t.Errorf("entry still addressed under bumped key %q; a schema bump would serve stale results", bumped)
		}
		inBumped := strings.Replace(r.Key, inPrefix, fmt.Sprintf("%s%d:%s/", prefix, len(bumpedSchema), bumpedSchema), 1)
		if _, ok := store.Get(inBumped); ok || inBumped == r.Key {
			t.Errorf("entry still addressed under input-schema-bumped key %q; an input schema bump would serve results of old inputs", inBumped)
		}
	}
}

// TestResultCacheCorruptionRecomputesSilently: tampered and truncated
// entries degrade to misses — the run succeeds, re-simulates, emits the
// cold run's exact bytes, and overwrites the bad entries so the next
// run is warm again.
func TestResultCacheCorruptionRecomputesSilently(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")

	cold := loadTestSpec(t, dir, "cold.json")
	cold.Run.CacheDir = cache
	var coldOut bytes.Buffer
	if err := Run(context.Background(), cold, Options{Stdout: &coldOut, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}

	// Mutilate every entry (input and result stores share the
	// directory): flip a payload byte in half, truncate the rest.
	entries, err := filepath.Glob(filepath.Join(cache, "*.pgc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("cold run wrote no cache entries")
	}
	for i, p := range entries {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && len(raw) > 0 {
			raw[len(raw)-1] ^= 0x40
		} else {
			raw = raw[:len(raw)/2]
		}
		if err := os.WriteFile(p, raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	tampered := loadTestSpec(t, dir, "tampered.json")
	tampered.Run.CacheDir = cache
	var tamperedOut, tamperedErr bytes.Buffer
	if err := Run(context.Background(), tampered, Options{Stdout: &tamperedOut, Stderr: &tamperedErr, CacheStats: true}); err != nil {
		t.Fatalf("run over a corrupted cache errored instead of recomputing: %v", err)
	}
	if !bytes.Equal(coldOut.Bytes(), tamperedOut.Bytes()) {
		t.Error("output over a corrupted cache differs from the cold run")
	}
	m, err := manifest.ReadFile(tampered.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Results {
		if r.Source != "computed" {
			t.Errorf("cell %q claims a cache hit from a fully corrupted store", r.Key)
		}
	}
	if hits, _ := parseCacheStats(t, tamperedErr.String(), "result"); hits != 0 {
		t.Errorf("result cache reported %d hits over corrupted entries", hits)
	}

	// The recompute overwrote the bad entries: a third run is warm.
	again := loadTestSpec(t, dir, "again.json")
	again.Run.CacheDir = cache
	var againOut bytes.Buffer
	if err := Run(context.Background(), again, Options{Stdout: &againOut, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldOut.Bytes(), againOut.Bytes()) {
		t.Error("run after recovery differs from the cold run")
	}
	m2, err := manifest.ReadFile(again.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m2.Results {
		if r.Source != "cache" {
			t.Errorf("cell %q was not recovered into the store", r.Key)
		}
	}
}

// TestResultCacheDeterminismAcrossJobsAndShards: with a shared warm
// cache, the run's bytes — stdout, report, and manifest — are invariant
// to the jobs knob and to sharding, exactly as they are cold.
func TestResultCacheDeterminismAcrossJobsAndShards(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")

	// Cold run primes the cache.
	prime := loadTestSpec(t, dir, "prime.json")
	prime.Run.CacheDir = cache
	var want bytes.Buffer
	if err := Run(context.Background(), prime, Options{Stdout: &want, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}

	// Warm unsharded baseline manifest: the one every warm run, however
	// scheduled or sharded, must reproduce byte for byte.
	base := loadTestSpec(t, dir, "warm-base.json")
	base.Run.CacheDir = cache
	var baseOut bytes.Buffer
	if err := Run(context.Background(), base, Options{Stdout: &baseOut, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), baseOut.Bytes()) {
		t.Fatal("warm baseline output differs from cold")
	}
	wantManifest, err := os.ReadFile(base.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}

	for _, jobs := range []int{1, 8} {
		sp := loadTestSpec(t, dir, fmt.Sprintf("warm-j%d.json", jobs))
		sp.Run.CacheDir = cache
		sp.Run.Jobs = jobs
		var out bytes.Buffer
		if err := Run(context.Background(), sp, Options{Stdout: &out, Stderr: io.Discard}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Errorf("jobs=%d warm output differs from baseline", jobs)
		}
		got, err := os.ReadFile(sp.Output.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantManifest) {
			t.Errorf("jobs=%d warm manifest differs from baseline:\n%s\nvs\n%s", jobs, got, wantManifest)
		}
	}

	// N=1 is the unsharded baseline above; a 1-shard string is inert
	// (sweep shards activate at N >= 2), so the sharded legs start at 2.
	// On a warm cache the shards find every cell they own stored and
	// put nothing; the unsharded run after them is the warm baseline.
	for _, count := range []int{2, 4} {
		for i := 0; i < count; i++ {
			sp := loadTestSpec(t, dir, fmt.Sprintf("rshard%d-%d.json", i, count))
			sp.Run.CacheDir = cache
			sp.Run.Shard = fmt.Sprintf("%d/%d", i, count)
			var out, errb bytes.Buffer
			if err := Run(context.Background(), sp, Options{Stdout: &out, Stderr: &errb, CacheStats: true}); err != nil {
				t.Fatalf("shard %d/%d: %v", i, count, err)
			}
			if out.Len() != 0 {
				t.Errorf("shard %d/%d wrote to stdout:\n%s", i, count, out.Bytes())
			}
			if puts := cachePuts(t, errb.String(), "result"); puts != 0 {
				t.Errorf("shard %d/%d on a warm cache put %d results", i, count, puts)
			}
		}
		sp := loadTestSpec(t, dir, fmt.Sprintf("rmerged-%d.json", count))
		sp.Run.CacheDir = cache
		var mergedOut bytes.Buffer
		if err := Run(context.Background(), sp, Options{Stdout: &mergedOut, Stderr: io.Discard}); err != nil {
			t.Fatalf("unsharded run over %d shards: %v", count, err)
		}
		if !bytes.Equal(mergedOut.Bytes(), want.Bytes()) {
			t.Errorf("%d-shard warm merged output differs from baseline", count)
		}
		got, err := os.ReadFile(sp.Output.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantManifest) {
			t.Errorf("%d-shard warm merged manifest differs from baseline:\n%s\nvs\n%s", count, got, wantManifest)
		}
	}
}
