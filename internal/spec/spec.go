// Package spec is the declarative experiment description every command
// loads: a small TOML subset (hand-rolled parser, no dependencies)
// naming the command, the machines and workloads, generator parameters,
// sweep axes, scheduling, and output artifacts, validated with defaults
// and range clamping so a bad spec fails with one line instead of a
// panic deep in a sweep.
//
// A spec has two kinds of fields. Result-determining fields — the
// command, scale, seeds, workload and sweep parameters, artifact paths
// — define WHAT the experiment is; they are rendered into a canonical
// form whose SHA-256 (Hash) identifies the experiment in
// reproducibility manifests (internal/manifest). Execution fields —
// workers, jobs, shard, cache_dir, manifest path — only say HOW the
// run is carried out; the simulators guarantee bit-identical artifacts
// for any value of them, so they are excluded from the canonical form
// and two runs of one spec at different -jobs hash identically.
package spec

import (
	"fmt"
	"slices"
	"strings"

	"pargraph/internal/cmdutil"
	"pargraph/internal/sweep"
)

// Commands the spec system drives.
const (
	CmdFigures  = "figures"
	CmdProfile  = "profile"
	CmdColoring = "coloring"
	CmdListrank = "listrank"
	CmdConcomp  = "concomp"
)

// defaultNodesPerWalk mirrors listrank.DefaultNodesPerWalk (the paper's
// ~10 nodes per MTA walk) without pulling the kernel packages into the
// spec layer; runner tests assert the two stay equal.
const defaultNodesPerWalk = 10

// maxAxisLen bounds sweep-axis overrides so a typo'd spec cannot
// schedule an absurd sweep.
const maxAxisLen = 64

// Run holds the cross-command settings: which command the spec drives
// and the execution knobs every command shares.
type Run struct {
	Command  string // figures, profile, coloring, listrank, concomp
	Scale    string // figures: small, medium, paper
	Seed     uint64 // profile/workload seed
	Workers  int    // host goroutines per simulated region (0 = one per host CPU)
	Jobs     int    // concurrent experiment cells (0 = NumCPU)
	Shard    string // "i/N" — run only that shard's cells (figures/profile)
	CacheDir string // persistent input/result cache directory ("" = $PARGRAPH_CACHE, then off)
}

// Figures selects what cmd/figures regenerates and optionally overrides
// the scale defaults' sweep axes.
type Figures struct {
	All     bool
	Fig     int // 0 = none, else 1 or 2
	Table   int // 0 = none, else 1
	Summary bool
	Exp     string // saturation, streams, sched, ..., coloring, colorsched
	Format  string // text, json, csv

	// Sweep-axis overrides; empty slices keep the scale defaults.
	Procs       []int // fig1/fig2/table1/E8 processor counts
	Sizes       []int // fig1 list lengths
	EdgeFactors []int // fig2 m/n factors
}

// Profile configures cmd/profile's single-kernel attribution run.
type Profile struct {
	Kernel   string // fig1, fig2, prefix, treecon, coloring
	Machine  string // mta, smp, both
	N        int
	Procs    int
	Layout   string  // ordered, random
	Sample   float64 // MTA within-region sampling cycles (0 = off)
	Attr     string  // stdout attribution: table, csv, json, none
	Timeline float64 // utilization-timeline bucket cycles (0 = off)
}

// Workload configures the single-run commands (coloring, listrank,
// concomp): one generated or loaded input, one machine, one kernel run.
type Workload struct {
	Gen          string // gnm, rmat, mesh2d, mesh3d, torus
	N            int
	M            int
	Rows         int
	Cols         int
	Depth        int
	Layout       string // listrank: ordered, random, clustered
	Machine      string
	Procs        int
	Sched        string // dynamic, block
	Sublists     int    // listrank SMP sublists per processor
	NodesPerWalk int    // listrank MTA nodes per walk
	Input        string // DIMACS file instead of generating
	Verify       bool
}

// Output names the artifacts a run writes. Paths are recorded in the
// manifest exactly as given and resolved against the working directory.
type Output struct {
	Report   string // figures: report file ("" = stdout)
	Trace    string // Chrome trace JSON file
	Attr     string // attribution CSV file (figures, coloring)
	Manifest string // reproducibility manifest file ("" = none)
}

// Spec is one parsed, defaulted experiment description.
type Spec struct {
	Run      Run
	Figures  Figures
	Profile  Profile
	Workload Workload
	Output   Output

	// set has bit i when the spec text assigned fields[i], so
	// validation can reject keys that do not apply to the command
	// without treating every command's defaults as conflicts.
	set uint64
}

// Default returns the spec every command starts from; parsed keys and
// flag overrides layer on top. It also holds the command's flag
// defaults (BindFlags), so an empty spec behaves like a bare invocation
// of the command.
func Default(command string) *Spec {
	s := &Spec{
		Run:     Run{Command: command, Scale: "small", Workers: 1, Jobs: 0, Seed: 1},
		Figures: Figures{Format: "text"},
		Profile: Profile{Kernel: "fig1", Machine: "both", N: 1 << 16, Procs: 8, Layout: "random", Attr: "table"},
		Workload: Workload{
			Gen: "gnm", N: 1 << 18, M: 4 << 18, Rows: 512, Cols: 512, Depth: 8,
			Layout: "random", Machine: "mta", Procs: 8, Sched: "dynamic",
			Sublists: 8, NodesPerWalk: defaultNodesPerWalk, Verify: true,
		},
	}
	switch command {
	case CmdProfile:
		s.Run.Seed = 0x33
	case CmdColoring:
		s.Workload.Gen = "rmat"
		s.Workload.N = 1 << 14
		s.Workload.M = 8 << 14
		s.Workload.Rows, s.Workload.Cols = 128, 128
	case CmdListrank:
		s.Workload.N = 1 << 20
	}
	return s
}

// FigureExps is the experiment vocabulary of cmd/figures -exp, in the
// order -all runs it.
var FigureExps = []string{"saturation", "streams", "sched", "hashing", "sublists", "shortcut",
	"cache", "assoc", "reduction", "treeeval", "coloring", "colorsched"}

// enum validates a closed string field.
func enum(section, key, got string, want ...string) error {
	for _, w := range want {
		if got == w {
			return nil
		}
	}
	return fmt.Errorf("spec: [%s] %s must be one of %s; got %q", section, key, strings.Join(want, ", "), got)
}

// positive validates a size field.
func positive(section, key string, v int) error {
	if v <= 0 {
		return fmt.Errorf("spec: [%s] %s must be positive, got %d", section, key, v)
	}
	return nil
}

// axis validates a sweep-axis override: bounded length, positive values.
func axis(key string, vals []int) error {
	if len(vals) > maxAxisLen {
		return fmt.Errorf("spec: [figures] %s lists at most %d values, got %d", key, maxAxisLen, len(vals))
	}
	for _, v := range vals {
		if v <= 0 {
			return fmt.Errorf("spec: [figures] %s values must be positive, got %d", key, v)
		}
	}
	return nil
}

// Validate checks ranges and cross-field consistency, clamping the
// fields documented as clamping (sample, timeline, sublists,
// nodes_per_walk) and rejecting everything else with a one-line error.
// Validation is idempotent: validating a validated spec changes
// nothing, which is what makes the canonical form a fixpoint.
func (s *Spec) Validate() error {
	r := &s.Run
	if err := enum("run", "command", r.Command, commands...); err != nil {
		return err
	}
	if err := enum("run", "scale", r.Scale, "small", "medium", "paper"); err != nil {
		return err
	}
	if r.Workers < 0 {
		return fmt.Errorf("spec: [run] workers must be >= 0 (0 = one per host CPU), got %d", r.Workers)
	}
	if r.Jobs < 0 {
		return fmt.Errorf("spec: [run] jobs must be >= 0 (0 = one per host CPU), got %d", r.Jobs)
	}
	if _, err := sweep.ParseShard(r.Shard); err != nil {
		return fmt.Errorf("spec: [run] %w", err)
	}

	// A key the text assigns that the command never reads is a
	// conflict, not dead weight: the author believed it did something.
	on := bitOf(r.Command)
	for i := range fields {
		if s.set&(1<<i) != 0 && fields[i].cmds&on == 0 {
			return fields[i].notRead(r.Command)
		}
	}

	switch r.Command {
	case CmdFigures:
		return s.validateFigures()
	case CmdProfile:
		return s.validateProfile()
	default:
		return s.validateWorkload()
	}
}

func (s *Spec) validateFigures() error {
	f := &s.Figures
	if f.Fig != 0 && f.Fig != 1 && f.Fig != 2 {
		return fmt.Errorf("spec: [figures] fig must be 1 or 2, got %d", f.Fig)
	}
	if f.Table != 0 && f.Table != 1 {
		return fmt.Errorf("spec: [figures] table must be 1, got %d", f.Table)
	}
	if f.Exp != "" && !slices.Contains(FigureExps, f.Exp) {
		return fmt.Errorf("spec: [figures] unknown experiment %q", f.Exp)
	}
	if err := enum("figures", "format", f.Format, "text", "json", "csv"); err != nil {
		return err
	}
	// Only Fig. 1, Fig. 2 and Table 1 have CSV writers; the summary and
	// the experiments would simulate and then print nothing.
	if f.Format == "csv" {
		for _, c := range []struct {
			set bool
			key string
		}{{f.All, "all"}, {f.Summary, "summary"}, {f.Exp != "", "exp"}} {
			if c.set {
				return fmt.Errorf("spec: [figures] format \"csv\" renders only fig and table, not %s", c.key)
			}
		}
	}
	if !f.All && f.Fig == 0 && f.Table == 0 && !f.Summary && f.Exp == "" {
		return fmt.Errorf("spec: [figures] selects nothing to run (set all, fig, table, summary, or exp)")
	}
	if err := axis("procs", f.Procs); err != nil {
		return err
	}
	if err := axis("sizes", f.Sizes); err != nil {
		return err
	}
	if err := axis("edge_factors", f.EdgeFactors); err != nil {
		return err
	}
	return nil
}

func (s *Spec) validateProfile() error {
	p := &s.Profile
	if err := enum("profile", "kernel", p.Kernel, "fig1", "fig2", "prefix", "treecon", "coloring"); err != nil {
		return err
	}
	if err := enum("profile", "machine", p.Machine, "mta", "smp", "both"); err != nil {
		return err
	}
	if err := positive("profile", "n", p.N); err != nil {
		return err
	}
	if p.N < 2 {
		return fmt.Errorf("spec: [profile] n must be at least 2, got %d", p.N)
	}
	if p.Kernel == "fig2" || p.Kernel == "coloring" {
		if err := cmdutil.CheckGraphGen("gnm", p.N, 8*p.N, 0, 0, 0); err != nil {
			return fmt.Errorf("spec: [profile] kernel %q runs on G(n, 8n): %w", p.Kernel, err)
		}
	}
	if err := positive("profile", "procs", p.Procs); err != nil {
		return err
	}
	if err := enum("profile", "layout", p.Layout, "ordered", "random"); err != nil {
		return err
	}
	if err := enum("profile", "attr", p.Attr, "table", "csv", "json", "none"); err != nil {
		return err
	}
	if p.Sample < 0 {
		p.Sample = 0
	}
	if p.Timeline < 0 {
		p.Timeline = 0
	}
	return nil
}

// Simulated reports whether a single run's [workload] machine is one of
// the simulators; the others run on the host and are never traced.
func Simulated(machine string) bool {
	return machine == "mta" || machine == "mta-star" || machine == "smp"
}

func (s *Spec) validateWorkload() error {
	w := &s.Workload
	cmd := s.Run.Command
	switch cmd {
	case CmdColoring:
		if err := enum("workload", "machine", w.Machine, "mta", "smp", "spec", "seq"); err != nil {
			return err
		}
	case CmdListrank:
		if err := enum("workload", "machine", w.Machine, "mta", "smp", "native", "seq"); err != nil {
			return err
		}
	case CmdConcomp:
		if err := enum("workload", "machine", w.Machine, "mta", "mta-star", "smp", "native", "as", "randmate", "hybrid", "seq", "bfs"); err != nil {
			return err
		}
	}
	// A host machine runs no simulator to trace: a trace or attribution
	// file would name an artifact the run never writes.
	if !Simulated(w.Machine) {
		for _, o := range []struct{ key, path string }{{"trace", s.Output.Trace}, {"attr", s.Output.Attr}} {
			if o.path != "" {
				return fmt.Errorf("spec: [output] %s needs a simulated machine; [workload] machine %q runs on the host", o.key, w.Machine)
			}
		}
	}
	if err := positive("workload", "procs", w.Procs); err != nil {
		return err
	}
	if err := enum("workload", "sched", w.Sched, "dynamic", "block"); err != nil {
		return err
	}
	if cmd == CmdListrank {
		if err := positive("workload", "n", w.N); err != nil {
			return err
		}
		if err := enum("workload", "layout", w.Layout, "ordered", "random", "clustered"); err != nil {
			return err
		}
		if w.Sublists < 1 {
			w.Sublists = 8
		}
		if w.NodesPerWalk < 1 {
			w.NodesPerWalk = defaultNodesPerWalk
		}
		return nil
	}
	if w.Input == "" {
		if err := cmdutil.CheckGraphGen(w.Gen, w.N, w.M, w.Rows, w.Cols, w.Depth); err != nil {
			return fmt.Errorf("spec: [workload] %w", err)
		}
	}
	return nil
}
