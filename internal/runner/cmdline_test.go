package runner

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pargraph/internal/spec"
)

// TestCommandLine: flags layer over the -spec file, the shared Options
// flags land in Options, and a spec written for another command is
// refused.
func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	lr := filepath.Join(dir, "lr.toml")
	fig := filepath.Join(dir, "fig.toml")
	if err := os.WriteFile(lr, []byte("[run]\ncommand = \"listrank\"\n[workload]\nn = 64\nprocs = 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fig, []byte("[figures]\nfig = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(args ...string) (*spec.Spec, Options, error) {
		fs := flag.NewFlagSet(spec.CmdListrank, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return NewCommandLine(fs, spec.CmdListrank).Parse(args)
	}

	sp, o, err := parse("-spec", lr, "-p", "3", "-no-result-cache", "-cache-stats", "-cache-max-bytes", "4096")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Workload.N != 64 || sp.Workload.Procs != 3 {
		t.Errorf("n = %d, procs = %d; want 64 from the file and 3 from the flag", sp.Workload.N, sp.Workload.Procs)
	}
	if !o.NoResultCache || !o.CacheStats || o.CacheMaxBytes != 4096 {
		t.Errorf("options = %+v", o)
	}
	if sp, _, err = parse(); err != nil {
		t.Fatal(err)
	}
	if sp.Workload.N != 1<<20 {
		t.Errorf("no -spec: n = %d, want the listrank default", sp.Workload.N)
	}
	if _, _, err := parse("-spec", fig); err == nil || !strings.Contains(err.Error(), `is a "figures" spec; run it with cmd/figures`) {
		t.Errorf("figures spec on listrank: err = %v", err)
	}
}
