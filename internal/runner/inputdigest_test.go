package runner

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/diskcache"
	"pargraph/internal/harness"
	"pargraph/internal/manifest"
	"pargraph/internal/spec"
)

// The tests here pin how a memoized result carries its inputs: a hit
// replays the input digests stored beside the result and opens no
// input, a miss resolves and hashes its inputs itself, and either way
// the manifest's inputs section is the one a cold run records.

// parseSpec parses and validates spec text, pointing its manifest and
// cache at the given paths.
func parseSpec(t *testing.T, text, manifestPath, cacheDir string) *spec.Spec {
	t.Helper()
	sp, err := spec.Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.Output.Manifest = manifestPath
	sp.Run.CacheDir = cacheDir
	return sp
}

// fig1Spec is testSpec's tiny Fig. 1 sweep over the given procs.
func fig1Spec(procs string) string {
	return strings.Replace(testSpec, "procs = [1, 2]", "procs = "+procs, 1)
}

// cachedRun is one run's stdout, its manifest, and its stderr, which
// carries the -cache-stats lines.
type cachedRun struct {
	stdout   []byte
	manifest *manifest.Manifest
	stderr   string
}

// runWithStats runs sp with -cache-stats.
func runWithStats(t *testing.T, sp *spec.Spec) cachedRun {
	t.Helper()
	var out, errb bytes.Buffer
	if err := Run(context.Background(), sp, Options{Stdout: &out, Stderr: &errb, CacheStats: true}); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.ReadFile(sp.Output.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	return cachedRun{stdout: out.Bytes(), manifest: m, stderr: errb.String()}
}

// cachePuts extracts one store's puts from -cache-stats output.
func cachePuts(t *testing.T, stderr, name string) int {
	t.Helper()
	m := regexp.MustCompile(name + ` cache \([^)]*\): .* puts=(\d+)`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no %s cache stats on stderr:\n%s", name, stderr)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// assertWarmReplay checks a warm run against its cold run: identical
// stdout and inputs, every cell replayed, no input looked up.
func assertWarmReplay(t *testing.T, cold, warm cachedRun) {
	t.Helper()
	if !bytes.Equal(cold.stdout, warm.stdout) {
		t.Errorf("warm output differs from cold:\n%s\nvs\n%s", warm.stdout, cold.stdout)
	}
	if len(cold.manifest.Inputs) == 0 {
		t.Fatal("cold manifest records no inputs")
	}
	if !reflect.DeepEqual(cold.manifest.Inputs, warm.manifest.Inputs) {
		t.Errorf("warm manifest inputs differ from cold:\n%+v\nvs\n%+v", warm.manifest.Inputs, cold.manifest.Inputs)
	}
	if len(warm.manifest.Results) == 0 {
		t.Error("warm manifest records no result provenance")
	}
	for _, r := range warm.manifest.Results {
		if r.Source != "cache" {
			t.Errorf("warm run recomputed %q", r.Key)
		}
	}
	if hits, misses := parseCacheStats(t, warm.stderr, "input"); hits != 0 || misses != 0 {
		t.Errorf("warm run input cache: hits=%d misses=%d, want no lookups", hits, misses)
	}
}

// removeInputEntries deletes every input-store entry in a cache
// directory, leaving the result store's entries in place. An entry's
// schema string follows its 8-byte magic as a uint32-length-prefixed
// field.
func removeInputEntries(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.pgc"))
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < 12 {
			continue
		}
		n := int(binary.LittleEndian.Uint32(raw[8:12]))
		if len(raw) >= 12+n && string(raw[12:12+n]) == harness.InputSchema {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	return removed
}

// TestWarmRunWithEvictedInputs: results alone make a warm run. With
// every input entry deleted, the warm run is still byte-identical,
// records the cold run's inputs from the stored digests, and
// regenerates nothing.
func TestWarmRunWithEvictedInputs(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	cold := runWithStats(t, parseSpec(t, testSpec, filepath.Join(dir, "cold.json"), cache))
	if removeInputEntries(t, cache) == 0 {
		t.Fatal("cold run wrote no input entries")
	}
	warm := runWithStats(t, parseSpec(t, testSpec, filepath.Join(dir, "warm.json"), cache))
	assertWarmReplay(t, cold, warm)
	if puts := cachePuts(t, warm.stderr, "input"); puts != 0 {
		t.Errorf("warm run over evicted inputs wrote %d input entries, want 0", puts)
	}
}

// TestMixedSweepRecordsColdInputs: a partly warm sweep mixes replayed
// and freshly hashed digests of the same inputs. Filled at procs {1,2}
// and run at {1,2,4}, the p=4 cells resolve and hash the lists the hit
// cells only replay, and the inputs section equals a fully cold run's.
func TestMixedSweepRecordsColdInputs(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	runWithStats(t, parseSpec(t, fig1Spec("[1, 2]"), filepath.Join(dir, "fill.json"), cache))
	mixed := runWithStats(t, parseSpec(t, fig1Spec("[1, 2, 4]"), filepath.Join(dir, "mixed.json"), cache))
	cold := runWithStats(t, parseSpec(t, fig1Spec("[1, 2, 4]"), filepath.Join(dir, "cold.json"), filepath.Join(dir, "fresh")))

	if !bytes.Equal(cold.stdout, mixed.stdout) {
		t.Error("partly warm output differs from the cold run")
	}
	if !reflect.DeepEqual(cold.manifest.Inputs, mixed.manifest.Inputs) {
		t.Errorf("partly warm inputs differ from cold:\n%+v\nvs\n%+v", mixed.manifest.Inputs, cold.manifest.Inputs)
	}
	var computed, replayed int
	for _, r := range mixed.manifest.Results {
		fresh := strings.Contains(r.Key, "fig1/p=4/")
		switch {
		case fresh && r.Source == "computed":
			computed++
		case !fresh && r.Source == "cache":
			replayed++
		default:
			t.Errorf("cell %q has source %q", r.Key, r.Source)
		}
	}
	if computed == 0 || replayed == 0 {
		t.Errorf("computed %d and replayed %d cells; want both", computed, replayed)
	}
	if hits, _ := parseCacheStats(t, mixed.stderr, "input"); hits == 0 {
		t.Error("the p=4 cells read no input from the store")
	}
}

// TestForgedInputDigestFailsRun: a replayed digest goes through the
// manifest log's conflict check like a freshly hashed one. A result
// entry rewritten with one input digest altered, replayed beside a
// cell that hashes the same input, fails the run, which then prints
// none of the report it rendered.
func TestForgedInputDigestFailsRun(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	fill := runWithStats(t, parseSpec(t, fig1Spec("[1, 2]"), filepath.Join(dir, "fill.json"), cache))

	in := fill.manifest.Inputs[0]
	var target string
	for _, r := range fill.manifest.Results {
		if strings.HasSuffix(r.Key, fmt.Sprintf("|%d:%s", len(in.Key), in.Key)) {
			target = r.Key
			break
		}
	}
	if target == "" {
		t.Fatalf("no result lists input %q", in.Key)
	}
	store, err := diskcache.Open(cache, harness.ResultSchema)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := store.Get(target)
	if !ok {
		t.Fatalf("result %q missing from the store", target)
	}
	forgedSum := strings.Repeat("0", len(in.SHA256))
	forged := bytes.Replace(payload, []byte(in.SHA256), []byte(forgedSum), 1)
	if bytes.Equal(forged, payload) {
		t.Fatalf("result %q does not carry the digest of input %q", target, in.Key)
	}
	if err := store.Put(target, forged); err != nil {
		t.Fatal(err)
	}

	sp := parseSpec(t, fig1Spec("[1, 2, 4]"), filepath.Join(dir, "mixed.json"), cache)
	var out bytes.Buffer
	err = Run(context.Background(), sp, Options{Stdout: &out, Stderr: &bytes.Buffer{}})
	want := fmt.Sprintf("input %q resolved twice with different content", in.Key)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want the manifest conflict %q", err, want)
	}
	if out.Len() != 0 {
		t.Errorf("the failed run printed its report:\n%s", out.String())
	}
}

// TestWarmSingleRunsReadNoInputs: the single-run workloads replay
// their input digests too — listrank, concomp with its union-find
// reference, coloring with its speculative reference, the host
// coloring, and a concomp on a DIMACS file, keyed by its content.
func TestWarmSingleRunsReadNoInputs(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dimacs := filepath.Join(t.TempDir(), "g.dimacs")
	if err := os.WriteFile(dimacs, []byte("p edge 5 4\ne 1 2\ne 2 3\ne 1 3\ne 4 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		text   string
		inputs int
	}{
		{"listrank-mta", "[run]\ncommand = \"listrank\"\n[workload]\nn = 4096\nmachine = \"mta\"\nprocs = 2\n", 1},
		{"concomp-mta-verify", "[run]\ncommand = \"concomp\"\n[workload]\nn = 1024\nm = 4096\nmachine = \"mta\"\nprocs = 2\nverify = true\n", 2},
		{"coloring-smp-verify", "[run]\ncommand = \"coloring\"\n[workload]\nn = 1024\nm = 8192\nmachine = \"smp\"\nprocs = 2\nverify = true\n", 2},
		{"coloring-spec", "[run]\ncommand = \"coloring\"\n[workload]\nn = 1024\nm = 8192\nmachine = \"spec\"\n", 1},
		{"concomp-dimacs", fmt.Sprintf("[run]\ncommand = \"concomp\"\n[workload]\ninput = %q\nmachine = \"smp\"\nprocs = 2\n", dimacs), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cache := filepath.Join(dir, "cache")
			cold := runWithStats(t, parseSpec(t, tc.text, filepath.Join(dir, "cold.json"), cache))
			if got := len(cold.manifest.Inputs); got != tc.inputs {
				t.Fatalf("cold run recorded %d inputs, want %d: %+v", got, tc.inputs, cold.manifest.Inputs)
			}
			warm := runWithStats(t, parseSpec(t, tc.text, filepath.Join(dir, "warm.json"), cache))
			assertWarmReplay(t, cold, warm)
		})
	}
}
