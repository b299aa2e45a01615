package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pargraph/internal/cmdtest"
)

func TestSmoke(t *testing.T) {
	cmdtest.Expect(t, []string{"-fig", "2", "-scale", "small"},
		"Fig. 2", "MTA", "SMP", "done.")
}

func TestSmokeColoring(t *testing.T) {
	cmdtest.Expect(t, []string{"-exp", "coloring", "-scale", "small"},
		"Speculative coloring", "round dynamics", "time vs processors", "done.")
}

func TestRejectsNegativeWorkers(t *testing.T) {
	cmdtest.RunError(t, []string{"-fig", "2", "-workers", "-1"}, "workers must be >= 0")
}

// TestFailedRunKeepsProfiles runs a sweep that fails after profiling
// starts (a shard needs a cache directory) and checks that it still
// leaves a complete CPU profile and a heap profile.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmdtest.RunError(t, []string{"-fig", "1", "-shard", "0/2", "-cpuprofile", cpu, "-memprofile", mem}, "needs -cache-dir")
	if b, err := os.ReadFile(cpu); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("cpu profile is not a gzip stream: %d bytes, %v", len(b), err)
	}
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
}

// TestRejectsUnbuildableEdgeFactor: an edge factor the scale's n cannot
// hold is a one-line error before any cell runs, not a cell's panic.
func TestRejectsUnbuildableEdgeFactor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.toml")
	if err := os.WriteFile(path, []byte("[run]\ncommand = \"figures\"\n[figures]\nfig = 2\nedge_factors = [5000]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := cmdtest.RunError(t, []string{"-spec", path}, "fig2: edge factor 5000: gnm with -n 8192 holds at most 33550336 edges")
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 1 {
		t.Errorf("%d lines of output, want 1:\n%s", lines, out)
	}
}
