package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/spec"
)

// The sharding contract: a shard computes the cells it owns into the
// result cache and writes nothing else, and the same spec run without
// shard on that cache replays every cell into exactly the bytes a cold
// run writes — computing only the cells no shard stored.

// shardSpec covers each figures family with its own result shape —
// fig1, fig2 (through the summary), table1 and coloring — at tiny
// sizes. shardRun adds the report, trace and attr paths, so the traced
// artifacts are under test too.
const shardSpec = "[run]\ncommand = \"figures\"\n[figures]\nfig = 1\ntable = 1\nsummary = true\nexp = \"coloring\"\nformat = \"json\"\nprocs = [1, 2]\nsizes = [256, 512]\nedge_factors = [4]\n"

// profileShardSpec is a two-cell profile: one cell per machine.
const profileShardSpec = "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"fig1\"\nmachine = \"both\"\nn = 1024\nprocs = 2\n"

// outputRoles are the artifacts a figures run writes, by file suffix;
// a profile run writes only its trace.
var outputRoles = []string{"report", "trace", "attr"}

// artifacts is one run's stdout, every output file it wrote keyed by
// role, and its stderr (with the -cache-stats lines).
type artifacts struct {
	stdout []byte
	files  map[string][]byte
	stderr string
}

// shardRun runs text with its outputs under dir/name.* and -cache-stats
// on, against cache ("" = no cache), as the given shard ("" = unsharded).
func shardRun(t *testing.T, text, dir, name, cache, shard string) artifacts {
	t.Helper()
	sp := parseSpec(t, text, filepath.Join(dir, name+".manifest"), cache)
	sp.Run.Shard = shard
	sp.Output.Trace = filepath.Join(dir, name+".trace")
	if sp.Run.Command == spec.CmdFigures {
		sp.Output.Report = filepath.Join(dir, name+".report")
		sp.Output.Attr = filepath.Join(dir, name+".attr")
	}
	var out, errb bytes.Buffer
	if err := Run(sp, Options{Stdout: &out, Stderr: &errb, CacheStats: true}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	a := artifacts{stdout: out.Bytes(), files: map[string][]byte{}, stderr: errb.String()}
	for _, role := range []string{"report", "trace", "attr", "manifest"} {
		if data, err := os.ReadFile(filepath.Join(dir, name+"."+role)); err == nil {
			a.files[role] = data
		}
	}
	return a
}

// runShards runs the listed shards of an N-shard run of text on cache
// and returns each one's result-cache puts, checking that a shard
// writes nothing: empty stdout, no output file, and one stderr line
// naming the cache directory.
func runShards(t *testing.T, text, dir, cache string, count int, shards ...int) map[int]int {
	t.Helper()
	puts := make(map[int]int)
	for _, i := range shards {
		name := fmt.Sprintf("shard%d-%d", i, count)
		a := shardRun(t, text, dir, name, cache, fmt.Sprintf("%d/%d", i, count))
		if len(a.stdout) != 0 {
			t.Errorf("%s wrote %d bytes to stdout", name, len(a.stdout))
		}
		for role := range a.files {
			t.Errorf("%s wrote its %s file", name, role)
		}
		if !strings.Contains(a.stderr, "result cache at "+cache+"; rerun without -shard") {
			t.Errorf("%s: stderr does not point at the cache:\n%s", name, a.stderr)
		}
		puts[i] = cachePuts(t, a.stderr, "result")
	}
	return puts
}

// assertSameArtifacts compares a merge run's stdout and output files
// with a cold run's.
func assertSameArtifacts(t *testing.T, what string, want, got artifacts) {
	t.Helper()
	if !bytes.Equal(want.stdout, got.stdout) {
		t.Errorf("%s: stdout differs from the cold run:\n%s\nvs\n%s", what, got.stdout, want.stdout)
	}
	for _, role := range outputRoles {
		if !bytes.Equal(want.files[role], got.files[role]) {
			t.Errorf("%s: %s differs from the cold run (%d vs %d bytes)", what, role, len(got.files[role]), len(want.files[role]))
		}
	}
}

// assertReplayedAll checks that a merge run simulated nothing: every
// result lookup hit, and the hits are exactly the cells the shards
// stored, so every cell was computed once.
func assertReplayedAll(t *testing.T, what string, merge artifacts, puts map[int]int) {
	t.Helper()
	sum := 0
	for _, p := range puts {
		sum += p
	}
	hits, misses := parseCacheStats(t, merge.stderr, "result")
	if misses != 0 || hits != sum || sum == 0 {
		t.Errorf("%s: merge run result cache hits=%d misses=%d, want hits=%d (the shards' puts) misses=0", what, hits, misses, sum)
	}
}

// TestShardsThenUnshardedRunIsByteIdentical: for N = 2 and 4 over one
// shared cache, the unsharded run after the shards writes the cold
// run's report, trace and attribution byte for byte, replaying exactly
// the cells the shards stored.
func TestShardsThenUnshardedRunIsByteIdentical(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	want := shardRun(t, shardSpec, dir, "cold", "", "")
	for role, data := range want.files {
		if len(data) == 0 {
			t.Fatalf("cold run wrote an empty %s", role)
		}
	}
	for _, count := range []int{2, 4} {
		cache := filepath.Join(dir, fmt.Sprintf("cache%d", count))
		shards := make([]int, count)
		for i := range shards {
			shards[i] = i
		}
		puts := runShards(t, shardSpec, dir, cache, count, shards...)
		merge := shardRun(t, shardSpec, dir, fmt.Sprintf("merge%d", count), cache, "")
		what := fmt.Sprintf("N=%d", count)
		assertSameArtifacts(t, what, want, merge)
		assertReplayedAll(t, what, merge, puts)
	}
}

// TestShardedProfileThenUnshardedRun: profile -machine both split into
// its two machine cells replays into the unsharded stdout and trace.
func TestShardedProfileThenUnshardedRun(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	want := shardRun(t, profileShardSpec, dir, "cold", "", "")
	if len(want.stdout) == 0 || len(want.files["trace"]) == 0 {
		t.Fatal("cold profile run wrote no stdout or trace")
	}
	puts := runShards(t, profileShardSpec, dir, cache, 2, 0, 1)
	merge := shardRun(t, profileShardSpec, dir, "merge", cache, "")
	assertSameArtifacts(t, "profile", want, merge)
	assertReplayedAll(t, "profile", merge, puts)
}

// TestShardedTextAndCSVFormats: the text and CSV renderers run only in
// the unsharded run, so sharding works for every report format.
func TestShardedTextAndCSVFormats(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	for _, format := range []string{"text", "csv"} {
		t.Run(format, func(t *testing.T) {
			text := strings.Replace(shardSpec, `format = "json"`, fmt.Sprintf("format = %q", format), 1)
			if format == "csv" {
				// CSV renders Fig. 1, Fig. 2 and Table 1 only; the spec
				// refuses the summary and experiments with it.
				text = strings.NewReplacer("summary = true\n", "", "exp = \"coloring\"\n", "").Replace(text)
			}
			dir := t.TempDir()
			cache := filepath.Join(dir, "cache")
			want := shardRun(t, text, dir, "cold", "", "")
			puts := runShards(t, text, dir, cache, 2, 0, 1)
			merge := shardRun(t, text, dir, "merge", cache, "")
			assertSameArtifacts(t, format, want, merge)
			assertReplayedAll(t, format, merge, puts)
		})
	}
}

// TestMissingShardIsRecomputed: a shard that never ran makes the
// unsharded run slower, not wrong — it computes exactly that shard's
// cells and still writes the cold run's bytes.
func TestMissingShardIsRecomputed(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	want := shardRun(t, shardSpec, dir, "cold", "", "")

	// The cells shard 1 owns: its puts on a cache of its own.
	owned := runShards(t, shardSpec, dir, filepath.Join(dir, "full"), 2, 1)[1]

	cache := filepath.Join(dir, "cache")
	runShards(t, shardSpec, dir, cache, 2, 0)
	merge := shardRun(t, shardSpec, dir, "merge", cache, "")
	assertSameArtifacts(t, "shard 1 missing", want, merge)
	if _, misses := parseCacheStats(t, merge.stderr, "result"); misses != owned || owned == 0 {
		t.Errorf("merge run computed %d cells, want the %d shard 1 owns", misses, owned)
	}
}

// TestShardNeedsResultCache: a shard's only product is its result-cache
// entries, so sharding with no cache directory, or with the result
// cache off, fails with one line before any cell runs.
func TestShardNeedsResultCache(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	const want = "-shard stores its cells in the result cache"
	for _, tc := range []struct {
		name, cache string
		noResult    bool
	}{
		{"no-cache-dir", "", false},
		{"no-result-cache", filepath.Join(dir, "cache"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := parseSpec(t, shardSpec, "", tc.cache)
			sp.Run.Shard = "0/2"
			var cells atomic.Int32
			var out bytes.Buffer
			err := Run(sp, Options{Stdout: &out, Stderr: &out, NoResultCache: tc.noResult,
				CellObserver: func(float64) { cells.Add(1) }})
			if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("err = %v, want one line containing %q", err, want)
			}
			if n := cells.Load(); n != 0 || out.Len() != 0 {
				t.Errorf("the failed run ran %d cells and wrote %q", n, out.String())
			}
		})
	}
}
