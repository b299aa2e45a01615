package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pargraph/internal/cmdtest"
)

func TestSmokeAttrTable(t *testing.T) {
	cmdtest.Expect(t, []string{"-kernel", "fig1", "-machine", "both", "-n", "4096"},
		"MTA fig1", "SMP fig1", "per-region attribution", "issue", "compute")
}

func TestSmokeColoringKernel(t *testing.T) {
	cmdtest.Expect(t, []string{"-kernel", "coloring", "-machine", "both", "-n", "1024"},
		"MTA coloring", "SMP coloring", "per-region attribution")
}

func TestRejectsNegativeWorkers(t *testing.T) {
	cmdtest.RunError(t, []string{"-kernel", "fig1", "-workers", "-1"}, "workers must be >= 0")
}

func TestSmokeChromeTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	cmdtest.Run(t, "-kernel", "fig2", "-machine", "mta", "-n", "1024", "-attr", "none", "-trace", out)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file holds no events")
	}
}

// TestRejectsUnbuildableSizes: a size the kernel's input generator
// cannot build is a one-line error, not a cell's panic and stack.
func TestRejectsUnbuildableSizes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-kernel", "fig2", "-machine", "smp", "-n", "16"}, `kernel "fig2" runs on G(n, 8n): gnm with -n 16 holds at most 120 edges`},
		{[]string{"-kernel", "coloring", "-n", "16"}, `kernel "coloring" runs on G(n, 8n)`},
		{[]string{"-kernel", "fig1", "-n", "1"}, "n must be at least 2, got 1"},
	} {
		out := cmdtest.RunError(t, c.args, c.want)
		if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 1 {
			t.Errorf("%v: %d lines of output, want 1:\n%s", c.args, lines, out)
		}
	}
}
