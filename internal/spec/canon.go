package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Canonical renders the result-determining fields of a validated spec
// in a fixed order: the spec identity that reproducibility manifests
// hash. Execution knobs (workers, jobs, shard, cache_dir, the manifest
// path itself) are deliberately absent — the simulators guarantee
// bit-identical artifacts for any value of them, so a sharded 8-job
// run and a serial run of one experiment carry the same identity.
//
// The text is itself a valid spec, and parsing it back and validating
// yields a spec whose Canonical is byte-identical (the fixpoint the
// fuzzer enforces), so a manifest can embed it and cmd/reproduce can
// re-run it directly.
func (s *Spec) Canonical() []byte {
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

// Hash is the hex SHA-256 of Canonical: the spec identity recorded in
// manifests and compared by cmd/reproduce. Since it excludes the shard,
// every shard of a run and the unsharded run over their result cache
// share one identity.
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

func renderArray(vals []int) string {
	if len(vals) == 0 {
		return "[]"
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Itoa(v)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// renderFloat formats a float so it re-parses to the same value; the
// shortest round-trip form keeps "0" for zero.
func renderFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
