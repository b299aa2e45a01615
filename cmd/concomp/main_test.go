package main

import (
	"testing"

	"pargraph/internal/cmdtest"
)

func TestSmokeMTA(t *testing.T) {
	cmdtest.Expect(t, []string{"-n", "1024", "-m", "2048", "-machine", "mta"},
		"machine=mta", "components verified ok")
}

func TestSmokeSMP(t *testing.T) {
	cmdtest.Expect(t, []string{"-n", "1024", "-m", "2048", "-machine", "smp"},
		"machine=SMP", "components verified ok")
}

func TestRejectsBadFlags(t *testing.T) {
	cmdtest.RunError(t, []string{"-workers", "-1"}, "workers must be >= 0")
	cmdtest.RunError(t, []string{"-p", "0"}, "procs must be positive")
	cmdtest.RunError(t, []string{"-gen", "gnm", "-n", "0"})
	cmdtest.RunError(t, []string{"-gen", "unknown-gen"})
	cmdtest.RunError(t, []string{"-machine", "bfs", "-trace", "t.json", "-emit-manifest", "mm.json"}, "trace needs a simulated machine")
}
