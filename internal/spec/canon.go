package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
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
	c := canon(make([]byte, 0, 512))
	c = append(c, "[run]\n"...)
	c.str("command", s.Run.Command)
	switch s.Run.Command {
	case CmdFigures:
		c.str("scale", s.Run.Scale)
	default:
		c.key("seed")
		c = strconv.AppendUint(c, s.Run.Seed, 10)
		c = append(c, '\n')
	}

	switch s.Run.Command {
	case CmdFigures:
		f := &s.Figures
		c.section("figures")
		c.bool("all", f.All)
		c.int("fig", f.Fig)
		c.int("table", f.Table)
		c.bool("summary", f.Summary)
		c.str("exp", f.Exp)
		c.str("format", f.Format)
		c.array("procs", f.Procs)
		c.array("sizes", f.Sizes)
		c.array("edge_factors", f.EdgeFactors)
	case CmdProfile:
		p := &s.Profile
		c.section("profile")
		c.str("kernel", p.Kernel)
		c.str("machine", p.Machine)
		c.int("n", p.N)
		c.int("procs", p.Procs)
		c.str("layout", p.Layout)
		c.float("sample", p.Sample)
		c.str("attr", p.Attr)
		c.float("timeline", p.Timeline)
	case CmdListrank:
		w := &s.Workload
		c.section("workload")
		c.int("n", w.N)
		c.str("layout", w.Layout)
		c.str("machine", w.Machine)
		c.int("procs", w.Procs)
		c.str("sched", w.Sched)
		c.int("sublists", w.Sublists)
		c.int("nodes_per_walk", w.NodesPerWalk)
		c.bool("verify", w.Verify)
	default: // coloring, concomp
		w := &s.Workload
		c.section("workload")
		c.str("gen", w.Gen)
		c.int("n", w.N)
		c.int("m", w.M)
		c.int("rows", w.Rows)
		c.int("cols", w.Cols)
		c.int("depth", w.Depth)
		c.str("machine", w.Machine)
		c.int("procs", w.Procs)
		if s.Run.Command == CmdColoring {
			c.str("sched", w.Sched)
		}
		c.str("input", w.Input)
		c.bool("verify", w.Verify)
	}

	c.section("output")
	if s.Run.Command == CmdFigures {
		c.str("report", s.Output.Report)
	}
	c.str("trace", s.Output.Trace)
	if s.Run.Command == CmdFigures || s.Run.Command == CmdColoring {
		c.str("attr", s.Output.Attr)
	}
	return c
}

// Hash is the hex SHA-256 of Canonical: the spec identity recorded in
// manifests and compared by cmd/reproduce. Since it excludes the shard,
// every shard of a run and the unsharded run over their result cache
// share one identity.
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// canon accumulates canonical spec text, one `key = value` line at a
// time, in the forms the parser reads back: strings quoted as %q does,
// integers and booleans as %d and %v do, and floats in their shortest
// round-trip form (so zero renders as "0").
type canon []byte

func (c *canon) section(name string) {
	*c = append(*c, "\n["...)
	*c = append(*c, name...)
	*c = append(*c, "]\n"...)
}

func (c *canon) key(k string) {
	*c = append(*c, k...)
	*c = append(*c, " = "...)
}

func (c *canon) str(k, v string) {
	c.key(k)
	*c = append(strconv.AppendQuote(*c, v), '\n')
}

func (c *canon) int(k string, v int) {
	c.key(k)
	*c = append(strconv.AppendInt(*c, int64(v), 10), '\n')
}

func (c *canon) bool(k string, v bool) {
	c.key(k)
	*c = append(strconv.AppendBool(*c, v), '\n')
}

func (c *canon) float(k string, v float64) {
	c.key(k)
	*c = append(strconv.AppendFloat(*c, v, 'g', -1, 64), '\n')
}

func (c *canon) array(k string, vals []int) {
	c.key(k)
	*c = append(*c, '[')
	for i, v := range vals {
		if i > 0 {
			*c = append(*c, ", "...)
		}
		*c = strconv.AppendInt(*c, int64(v), 10)
	}
	*c = append(*c, "]\n"...)
}
