package main

import (
	"os"
	"path/filepath"
	"testing"

	"pargraph/internal/cmdtest"
)

func TestSmokeMTA(t *testing.T) {
	cmdtest.Expect(t, []string{"-gen", "rmat", "-n", "1024", "-m", "4096", "-machine", "mta", "-p", "4"},
		"machine=MTA", "colors:", "coloring verified ok")
}

func TestSmokeSMP(t *testing.T) {
	cmdtest.Expect(t, []string{"-gen", "mesh2d", "-rows", "16", "-cols", "17", "-machine", "smp", "-p", "2"},
		"machine=SMP", "colors:", "coloring verified ok")
}

func TestSmokeHostAndSequential(t *testing.T) {
	cmdtest.Expect(t, []string{"-gen", "gnm", "-n", "500", "-m", "2000", "-machine", "spec"},
		"machine=host", "rounds:", "coloring verified ok")
	cmdtest.Expect(t, []string{"-gen", "torus", "-rows", "8", "-cols", "9", "-machine", "seq"},
		"machine=sequential", "colors:")
}

func TestSmokeDIMACSInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.dimacs")
	in := "c tiny triangle plus a pendant\np edge 4 4\ne 1 2\ne 2 3\ne 1 3\ne 3 4\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	cmdtest.Expect(t, []string{"-in", path, "-machine", "mta", "-p", "2"},
		"n=4 m=4", "coloring verified ok")
}

func TestRejectsBadFlags(t *testing.T) {
	cmdtest.RunError(t, []string{"-workers", "-1"}, "workers must be >= 0")
	cmdtest.RunError(t, []string{"-p", "0"}, "procs must be positive")
	cmdtest.RunError(t, []string{"-gen", "gnm", "-n", "0"})
	cmdtest.RunError(t, []string{"-gen", "gnm", "-n", "4", "-m", "100"})
	cmdtest.RunError(t, []string{"-gen", "petersen"})
	cmdtest.RunError(t, []string{"-sched", "zigzag"}, "sched must be one of dynamic, block")
	cmdtest.RunError(t, []string{"-gen", "gnm", "-n", "256", "-m", "1024", "-machine", "seq", "-attr", "a.csv"}, "attr needs a simulated machine")
}

func TestRejectsMalformedDIMACS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.dimacs")
	if err := os.WriteFile(path, []byte("p edge 2 1\ne 2 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmdtest.RunError(t, []string{"-in", path}, "self-loop")
}
