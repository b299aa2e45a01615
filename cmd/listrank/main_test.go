package main

import (
	"testing"

	"pargraph/internal/cmdtest"
)

func TestSmokeMTA(t *testing.T) {
	cmdtest.Expect(t, []string{"-n", "4096", "-machine", "mta"},
		"machine=MTA", "ranks verified ok")
}

func TestSmokeSMP(t *testing.T) {
	cmdtest.Expect(t, []string{"-n", "4096", "-machine", "smp"},
		"machine=SMP", "ranks verified ok")
}

func TestRejectsBadFlags(t *testing.T) {
	cmdtest.RunError(t, []string{"-workers", "-1"}, "workers must be >= 0")
	cmdtest.RunError(t, []string{"-n", "0"}, "n must be positive")
	cmdtest.RunError(t, []string{"-p", "-2"}, "procs must be positive")
	cmdtest.RunError(t, []string{"-nodes-per-walk", "0"}, "-nodes-per-walk")
	cmdtest.RunError(t, []string{"-n", "4096", "-machine", "native", "-trace", "t.json"}, "trace needs a simulated machine")
}
