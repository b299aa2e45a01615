package spec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// canonicalFmt is the fmt-based rendering Canonical replaced. Canonical
// must match it byte for byte: the bytes are hashed into every manifest
// and result key, so any difference would move a pinned spec hash.
func canonicalFmt(s *Spec) []byte {
	renderArray := func(vals []int) string {
		if len(vals) == 0 {
			return "[]"
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = strconv.Itoa(v)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	renderFloat := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

	var b strings.Builder
	fmt.Fprintf(&b, "[run]\ncommand = %q\n", s.Run.Command)
	switch s.Run.Command {
	case CmdFigures:
		fmt.Fprintf(&b, "scale = %q\n", s.Run.Scale)
	default:
		fmt.Fprintf(&b, "seed = %d\n", s.Run.Seed)
	}

	switch s.Run.Command {
	case CmdFigures:
		f := &s.Figures
		fmt.Fprintf(&b, "\n[figures]\nall = %v\nfig = %d\ntable = %d\nsummary = %v\nexp = %q\nformat = %q\n",
			f.All, f.Fig, f.Table, f.Summary, f.Exp, f.Format)
		fmt.Fprintf(&b, "procs = %s\nsizes = %s\nedge_factors = %s\n",
			renderArray(f.Procs), renderArray(f.Sizes), renderArray(f.EdgeFactors))
	case CmdProfile:
		p := &s.Profile
		fmt.Fprintf(&b, "\n[profile]\nkernel = %q\nmachine = %q\nn = %d\nprocs = %d\nlayout = %q\nsample = %s\nattr = %q\ntimeline = %s\n",
			p.Kernel, p.Machine, p.N, p.Procs, p.Layout, renderFloat(p.Sample), p.Attr, renderFloat(p.Timeline))
	case CmdListrank:
		w := &s.Workload
		fmt.Fprintf(&b, "\n[workload]\nn = %d\nlayout = %q\nmachine = %q\nprocs = %d\nsched = %q\nsublists = %d\nnodes_per_walk = %d\nverify = %v\n",
			w.N, w.Layout, w.Machine, w.Procs, w.Sched, w.Sublists, w.NodesPerWalk, w.Verify)
	default: // coloring, concomp
		w := &s.Workload
		fmt.Fprintf(&b, "\n[workload]\ngen = %q\nn = %d\nm = %d\nrows = %d\ncols = %d\ndepth = %d\nmachine = %q\nprocs = %d\n",
			w.Gen, w.N, w.M, w.Rows, w.Cols, w.Depth, w.Machine, w.Procs)
		if s.Run.Command == CmdColoring {
			fmt.Fprintf(&b, "sched = %q\n", w.Sched)
		}
		fmt.Fprintf(&b, "input = %q\nverify = %v\n", w.Input, w.Verify)
	}

	fmt.Fprintf(&b, "\n[output]\n")
	if s.Run.Command == CmdFigures {
		fmt.Fprintf(&b, "report = %q\n", s.Output.Report)
	}
	fmt.Fprintf(&b, "trace = %q\n", s.Output.Trace)
	if s.Run.Command == CmdFigures || s.Run.Command == CmdColoring {
		fmt.Fprintf(&b, "attr = %q\n", s.Output.Attr)
	}
	return []byte(b.String())
}

// TestCanonicalMatchesFmt compares Canonical with the fmt rendering on
// every checked-in spec, every command's defaults, and the fuzz seed
// corpus.
func TestCanonicalMatchesFmt(t *testing.T) {
	texts := map[string][]byte{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.toml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in specs found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		texts[filepath.Base(p)] = data
	}
	for name, text := range validSpecs {
		texts["valid/"+name] = []byte(text)
	}
	for i, text := range fuzzSeeds {
		texts[fmt.Sprintf("fuzz seed %d", i)] = []byte(text)
	}

	specs := map[string]*Spec{}
	for name, text := range texts {
		s, err := Parse(text)
		if err != nil || s.Validate() != nil {
			continue // the fuzz corpus holds malformed specs too
		}
		specs[name] = s
	}
	for _, cmd := range []string{CmdFigures, CmdProfile, CmdColoring, CmdListrank, CmdConcomp} {
		specs["defaults/"+cmd] = Default(cmd)
		// The fields only non-default specs render.
		v := Default(cmd)
		v.Run.Seed = 1<<64 - 1
		v.Figures.Procs, v.Figures.Sizes, v.Figures.EdgeFactors = []int{1, 2, 8}, []int{4096}, nil
		v.Profile.Sample, v.Profile.Timeline = 0.125, 1e21
		v.Workload.Input, v.Output.Trace, v.Output.Attr = "in put.gr", "t.json", "a.csv"
		specs["varied/"+cmd] = v
	}
	if len(specs) < len(paths)+10 {
		t.Fatalf("only %d specs validated", len(specs))
	}
	for name, s := range specs {
		if got, want := s.Canonical(), canonicalFmt(s); !bytes.Equal(got, want) {
			t.Errorf("%s: Canonical differs from the fmt rendering:\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
}
