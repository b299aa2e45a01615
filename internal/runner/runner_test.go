package runner

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/harness"
	"pargraph/internal/listrank"
	"pargraph/internal/manifest"
	"pargraph/internal/spec"
)

// testSpec is the tiny figures sweep the golden-manifest tests run: two
// machines, two processor counts, two sizes — enough cells for sharding
// and job scheduling to matter, small enough to run many times.
const testSpec = "[run]\ncommand = \"figures\"\n[figures]\nfig = 1\nformat = \"json\"\nprocs = [1, 2]\nsizes = [256, 512]\n"

// loadTestSpec parses testSpec fresh (Validate mutates the spec, and
// runs must not share one) and points its manifest at dir.
func loadTestSpec(t *testing.T, dir, name string) *spec.Spec {
	t.Helper()
	sp, err := spec.Parse([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.Output.Manifest = filepath.Join(dir, name)
	return sp
}

// TestManifestInvariantToExecutionKnobs: the manifest must be
// byte-identical however the run is scheduled — that is the whole point
// of excluding workers and jobs from the canonical spec, and it only
// holds if the artifacts themselves are deterministic under
// concurrency.
func TestManifestInvariantToExecutionKnobs(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()
	var want []byte
	for _, cfg := range []struct{ jobs, workers int }{
		{1, 1}, {2, 1}, {8, 1}, {1, 4}, {2, 4}, {8, 4}, {0, 0},
	} {
		name := fmt.Sprintf("j%dw%d.json", cfg.jobs, cfg.workers)
		sp := loadTestSpec(t, dir, name)
		sp.Run.Jobs = cfg.jobs
		sp.Run.Workers = cfg.workers
		if err := Run(context.Background(), sp, Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
			t.Fatalf("jobs=%d workers=%d: %v", cfg.jobs, cfg.workers, err)
		}
		got, err := os.ReadFile(sp.Output.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("jobs=%d workers=%d produced a different manifest:\n%s\nvs baseline:\n%s",
				cfg.jobs, cfg.workers, got, want)
		}
	}
}

// TestMergedShardManifestMatchesUnsharded: the unsharded run over N
// shards' result cache writes the manifest a cold unsharded run writes
// in every section but results, for several N; its results name the
// same cells, every one replayed from the cache.
func TestMergedShardManifestMatchesUnsharded(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	dir := t.TempDir()

	un := loadTestSpec(t, dir, "unsharded.json")
	if err := Run(context.Background(), un, Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}
	want, wantResults := manifestWithoutResults(t, un.Output.Manifest)

	for _, count := range []int{2, 4} {
		cache := filepath.Join(dir, fmt.Sprintf("cache%d", count))
		for i := 0; i < count; i++ {
			sp := loadTestSpec(t, dir, fmt.Sprintf("shard%d-%d.json", i, count))
			sp.Run.CacheDir = cache
			sp.Run.Shard = fmt.Sprintf("%d/%d", i, count)
			if err := Run(context.Background(), sp, Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
				t.Fatalf("shard %d/%d: %v", i, count, err)
			}
		}
		merged := loadTestSpec(t, dir, fmt.Sprintf("merged-%d.json", count))
		merged.Run.CacheDir = cache
		if err := Run(context.Background(), merged, Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
			t.Fatalf("unsharded run over %d shards: %v", count, err)
		}
		got, gotResults := manifestWithoutResults(t, merged.Output.Manifest)
		if !bytes.Equal(got, want) {
			t.Errorf("%d-shard merged manifest differs from unsharded outside results:\n%s\nvs\n%s", count, got, want)
		}
		if len(gotResults) != len(wantResults) || len(wantResults) == 0 {
			t.Fatalf("%d-shard merged manifest records %d results, unsharded %d", count, len(gotResults), len(wantResults))
		}
		for i, r := range gotResults {
			if r.Key != wantResults[i].Key || r.Source != "cache" {
				t.Errorf("%d-shard merged result %d = %+v, want key %q from the cache", count, i, r, wantResults[i].Key)
			}
		}
	}
}

// manifestWithoutResults reads the manifest at path and returns its
// encoding with the results section cut, and that section.
func manifestWithoutResults(t *testing.T, path string) ([]byte, []manifest.Result) {
	t.Helper()
	m, err := manifest.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	results := m.Results
	m.Results = nil
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data, results
}

// TestSpecDefaultNodesPerWalk pins the spec layer's copy of the
// listrank default against the kernel package's constant, since the
// spec package deliberately does not import the kernels.
func TestSpecDefaultNodesPerWalk(t *testing.T) {
	if got := spec.Default(spec.CmdListrank).Workload.NodesPerWalk; got != listrank.DefaultNodesPerWalk {
		t.Errorf("spec default nodes_per_walk = %d, listrank.DefaultNodesPerWalk = %d", got, listrank.DefaultNodesPerWalk)
	}
}

// TestExperimentsMatchSpec: figures dispatches exactly the experiments
// the spec accepts, so every valid -exp runs and -all runs them all.
func TestExperimentsMatchSpec(t *testing.T) {
	exps := (&runCtx{}).experiments(harness.Small, harness.ColoringParams{})
	var got []string
	for name := range exps {
		got = append(got, name)
	}
	want := slices.Clone(spec.FigureExps)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("dispatch keys %q, spec.FigureExps %q", got, want)
	}
}

// TestSingleRunsReportOneCell: every single-run command is a one-cell
// sweep, so Options.CellObserver fires exactly once per run, wall-clock
// machines included.
func TestSingleRunsReportOneCell(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	for _, text := range []string{
		"[run]\ncommand = \"listrank\"\n[workload]\nn = 1024\nprocs = 2\n",
		"[run]\ncommand = \"listrank\"\n[workload]\nn = 1024\nmachine = \"native\"\nprocs = 2\n",
		"[run]\ncommand = \"concomp\"\n[workload]\nn = 512\nm = 2048\nprocs = 2\n",
		"[run]\ncommand = \"coloring\"\n[workload]\nn = 512\nm = 2048\nmachine = \"smp\"\nprocs = 2\n",
	} {
		sp, err := spec.Parse([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		var cells atomic.Int32
		o := Options{Stdout: io.Discard, Stderr: io.Discard, CellObserver: func(float64) { cells.Add(1) }}
		if err := Run(context.Background(), sp, o); err != nil {
			t.Fatal(err)
		}
		if got := cells.Load(); got != 1 {
			t.Errorf("%s %s run reported %d cells, want 1", sp.Run.Command, sp.Workload.Machine, got)
		}
	}
}

// TestCollectedRunReadsInputFile: RunContext reads a [workload] input
// file as Run does and collects the bytes Run prints. cmd/serve's
// admission, not the runner, keeps a client's spec off server files.
func TestCollectedRunReadsInputFile(t *testing.T) {
	t.Setenv(cmdutil.CacheEnv, "")
	path := filepath.Join(t.TempDir(), "g.dimacs")
	if err := os.WriteFile(path, []byte("p edge 3 2\ne 1 2\ne 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp := spec.Default(spec.CmdConcomp)
	sp.Workload.Input = path
	sp.Workload.Procs = 2
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Run(context.Background(), sp, Options{Stdout: &out, Stderr: io.Discard}); err != nil {
		t.Fatalf("CLI run: %v", err)
	}
	if !strings.Contains(out.String(), "components verified ok") {
		t.Fatalf("CLI run printed:\n%s", out.String())
	}
	res, err := RunContext(context.Background(), sp, Options{Stdout: io.Discard, Stderr: io.Discard})
	if err != nil {
		t.Fatalf("collected run: %v", err)
	}
	if a := res.Artifact("stdout"); a == nil || !bytes.Equal(a.Data, out.Bytes()) {
		t.Errorf("collected stdout %+v, want the CLI's:\n%s", a, out.String())
	}
}

// TestUnbuildableSizesFailBeforeAnyCell: a size the graph generator
// cannot build ends the run with a one-line error before any cell runs:
// from Validate for a profile, whose spec names n, and from RunFig2 for
// a figures edge factor, whose n is a scale default.
func TestUnbuildableSizesFailBeforeAnyCell(t *testing.T) {
	cases := []struct{ name, text, want string }{
		{"profile-fig2", "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"fig2\"\nmachine = \"smp\"\nn = 16\n",
			`spec: [profile] kernel "fig2" runs on G(n, 8n): gnm with -n 16 holds at most 120 edges, got -m 128`},
		{"profile-coloring", "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"coloring\"\nn = 16\n",
			`spec: [profile] kernel "coloring" runs on G(n, 8n): gnm with -n 16 holds at most 120 edges, got -m 128`},
		{"profile-n-1", "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"prefix\"\nn = 1\n",
			`spec: [profile] n must be at least 2, got 1`},
		{"fig2-edge-factor", "[run]\ncommand = \"figures\"\n[figures]\nfig = 2\nedge_factors = [4, 5000]\n",
			`fig2: edge factor 5000: gnm with -n 8192 holds at most 33550336 edges, got -m 40960000`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp, err := spec.Parse([]byte(c.text))
			if err != nil {
				t.Fatal(err)
			}
			var cells atomic.Int64
			if err = sp.Validate(); err == nil {
				_, err = RunContext(context.Background(), sp, Options{
					Stdout: io.Discard, Stderr: io.Discard,
					CellObserver: func(float64) { cells.Add(1) },
				})
			}
			if err == nil || err.Error() != c.want {
				t.Fatalf("error = %v\n     want %s", err, c.want)
			}
			if n := cells.Load(); n != 0 {
				t.Errorf("%d cells ran before the error", n)
			}
		})
	}
}
