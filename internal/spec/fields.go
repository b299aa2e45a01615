package spec

import (
	"fmt"
	"math/bits"
	"strings"

	"pargraph/internal/cmdutil"
)

// cmdSet is a set of commands, one bit per entry of commands.
type cmdSet uint8

const (
	onFigures cmdSet = 1 << iota
	onProfile
	onColoring
	onListrank
	onConcomp

	onAll      = onFigures | onProfile | onColoring | onListrank | onConcomp
	onWorkload = onColoring | onListrank | onConcomp
	onGraph    = onColoring | onConcomp
)

// commands lists the commands in cmdSet bit order.
var commands = []string{CmdFigures, CmdProfile, CmdColoring, CmdListrank, CmdConcomp}

// bitOf returns command's bit in a cmdSet, 0 for an unknown command.
func bitOf(command string) cmdSet {
	for i, name := range commands {
		if name == command {
			return 1 << i
		}
	}
	return 0
}

// field is one spec key. The table below is the whole vocabulary: the
// parser accepts exactly its keys, Canonical renders the keys a command
// reads in its order, Validate rejects a key the command does not read,
// and BindFlags gives every key with a flag name its command-line flag.
type field struct {
	section, key string
	// cmds are the commands that read the key.
	cmds cmdSet
	// knob marks an execution knob: it changes how a run is carried out,
	// never its artifacts, so the canonical form leaves it out.
	knob bool
	// flag is the key's command-line flag ("" = spec only).
	flag, usage string
	// ptr returns the key's Spec field: a *string, *int, *uint64,
	// *float64, *bool or *[]int, which is also the value kind it parses.
	ptr func(*Spec) any
}

// fields is the spec vocabulary in canonical order. Spec.set keeps one
// bit per row, so the table holds at most 64 keys.
var fields = []field{
	{"run", "command", onAll, false, "", "",
		func(s *Spec) any { return &s.Run.Command }},
	{"run", "scale", onFigures, false, "scale", "problem scale: small, medium, or paper",
		func(s *Spec) any { return &s.Run.Scale }},
	{"run", "seed", onAll &^ onFigures, false, "seed", "workload seed",
		func(s *Spec) any { return &s.Run.Seed }},
	{"run", "workers", onAll, true, "workers", "host goroutines replaying each simulated region (0 = one per host CPU); results are identical for any value",
		func(s *Spec) any { return &s.Run.Workers }},
	{"run", "jobs", onAll, true, "jobs", "experiment cells run concurrently (0 = NumCPU; profile -machine both runs one cell per machine, a single run is one cell); results are identical for any value",
		func(s *Spec) any { return &s.Run.Jobs }},
	{"run", "shard", onFigures | onProfile, true, "shard", "run only the cells of shard i/N (e.g. 0/4) and store their results in the cache, writing no output; rerun without -shard on the same -cache-dir to write it",
		func(s *Spec) any { return &s.Run.Shard }},
	{"run", "cache_dir", onAll, true, "cache-dir", "persist generated inputs and whole cell results in a content-addressed cache at this directory (default $" + cmdutil.CacheEnv + "; empty = off)",
		func(s *Spec) any { return &s.Run.CacheDir }},

	{"figures", "all", onFigures, false, "all", "run everything",
		func(s *Spec) any { return &s.Figures.All }},
	{"figures", "fig", onFigures, false, "fig", "figure to regenerate (1 or 2)",
		func(s *Spec) any { return &s.Figures.Fig }},
	{"figures", "table", onFigures, false, "table", "table to regenerate (1)",
		func(s *Spec) any { return &s.Figures.Table }},
	{"figures", "summary", onFigures, false, "summary", "print the §5 headline ratios",
		func(s *Spec) any { return &s.Figures.Summary }},
	{"figures", "exp", onFigures, false, "exp", "extra experiment: " + strings.Join(FigureExps, ", "),
		func(s *Spec) any { return &s.Figures.Exp }},
	{"figures", "format", onFigures, false, "", "",
		func(s *Spec) any { return &s.Figures.Format }},
	{"figures", "procs", onFigures, false, "", "",
		func(s *Spec) any { return &s.Figures.Procs }},
	{"figures", "sizes", onFigures, false, "", "",
		func(s *Spec) any { return &s.Figures.Sizes }},
	{"figures", "edge_factors", onFigures, false, "", "",
		func(s *Spec) any { return &s.Figures.EdgeFactors }},

	{"profile", "kernel", onProfile, false, "kernel", "kernel to profile: fig1 (list ranking), fig2 (connected components), prefix, treecon, coloring",
		func(s *Spec) any { return &s.Profile.Kernel }},
	{"profile", "machine", onProfile, false, "machine", "machine(s) to run: mta, smp, or both",
		func(s *Spec) any { return &s.Profile.Machine }},
	{"profile", "n", onProfile, false, "n", "problem size (list nodes / graph vertices / tree leaves)",
		func(s *Spec) any { return &s.Profile.N }},
	{"profile", "procs", onProfile, false, "procs", "simulated processors",
		func(s *Spec) any { return &s.Profile.Procs }},
	{"profile", "layout", onProfile, false, "layout", "list layout for fig1/prefix: ordered or random",
		func(s *Spec) any { return &s.Profile.Layout }},
	{"profile", "sample", onProfile, false, "sample", "MTA within-region sampling interval in simulated cycles (0 = off)",
		func(s *Spec) any { return &s.Profile.Sample }},
	{"profile", "attr", onProfile, false, "attr", "attribution format on stdout: table, csv, json, or none",
		func(s *Spec) any { return &s.Profile.Attr }},
	{"profile", "timeline", onProfile, false, "timeline", "print a utilization timeline with this bucket width in cycles (0 = off)",
		func(s *Spec) any { return &s.Profile.Timeline }},

	{"workload", "gen", onGraph, false, "gen", "graph generator: gnm, rmat, mesh2d, mesh3d, torus",
		func(s *Spec) any { return &s.Workload.Gen }},
	{"workload", "n", onWorkload, false, "n", "list length (listrank) or vertices (gnm/rmat)",
		func(s *Spec) any { return &s.Workload.N }},
	{"workload", "m", onGraph, false, "m", "edges (gnm/rmat)",
		func(s *Spec) any { return &s.Workload.M }},
	{"workload", "rows", onGraph, false, "rows", "rows (mesh/torus)",
		func(s *Spec) any { return &s.Workload.Rows }},
	{"workload", "cols", onGraph, false, "cols", "cols (mesh/torus)",
		func(s *Spec) any { return &s.Workload.Cols }},
	{"workload", "depth", onGraph, false, "depth", "depth (mesh3d)",
		func(s *Spec) any { return &s.Workload.Depth }},
	{"workload", "layout", onListrank, false, "layout", "list layout: ordered, clustered, or random",
		func(s *Spec) any { return &s.Workload.Layout }},
	{"workload", "machine", onWorkload, false, "machine", "simulated machine mta or smp, or a host run: spec or seq (coloring); native or seq (listrank); mta-star, native, as, randmate, hybrid, seq or bfs (concomp)",
		func(s *Spec) any { return &s.Workload.Machine }},
	{"workload", "procs", onWorkload, false, "p", "processors (simulated, or goroutines on a native host run)",
		func(s *Spec) any { return &s.Workload.Procs }},
	{"workload", "sched", onColoring | onListrank, false, "sched", "MTA loop schedule: dynamic or block",
		func(s *Spec) any { return &s.Workload.Sched }},
	{"workload", "sublists", onListrank, false, "sublists-per-proc", "SMP sublists per processor",
		func(s *Spec) any { return &s.Workload.Sublists }},
	{"workload", "nodes_per_walk", onListrank, false, "nodes-per-walk", "MTA list nodes per walk",
		func(s *Spec) any { return &s.Workload.NodesPerWalk }},
	{"workload", "input", onGraph, false, "in", "read the graph from a DIMACS `p edge` file instead of generating",
		func(s *Spec) any { return &s.Workload.Input }},
	{"workload", "verify", onWorkload, false, "verify", "cross-check the result against the host reference (sequential ranks, union-find components, a proper coloring)",
		func(s *Spec) any { return &s.Workload.Verify }},

	{"output", "report", onFigures, false, "", "",
		func(s *Spec) any { return &s.Output.Report }},
	{"output", "trace", onAll, false, "trace", "write a Chrome trace with per-region cycle attribution to this file (simulated machines)",
		func(s *Spec) any { return &s.Output.Trace }},
	{"output", "attr", onFigures | onColoring, false, "attr", "write the per-region cycle attribution as CSV to this file (simulated machines)",
		func(s *Spec) any { return &s.Output.Attr }},
	{"output", "manifest", onAll, true, "emit-manifest", "write a reproducibility manifest (spec hash, input keys, artifact hashes) to this file",
		func(s *Spec) any { return &s.Output.Manifest }},
}

// lookup returns the index of the section's key in fields, or -1.
func lookup(section, key string) int {
	for i := range fields {
		if fields[i].section == section && fields[i].key == key {
			return i
		}
	}
	return -1
}

// knownSection reports whether any key lives in the named section.
func knownSection(name string) bool {
	for i := range fields {
		if fields[i].section == name {
			return true
		}
	}
	return false
}

// notRead is the error for a key the command does not read: the whole
// section when the command reads none of it, else the key, naming its
// one reader when it has only one.
func (f *field) notRead(command string) error {
	on := bitOf(command)
	for i := range fields {
		if fields[i].section == f.section && fields[i].cmds&on != 0 {
			if bits.OnesCount8(uint8(f.cmds)) == 1 {
				only := commands[bits.TrailingZeros8(uint8(f.cmds))]
				return fmt.Errorf("spec: [%s] %s applies only to command %q", f.section, f.key, only)
			}
			return fmt.Errorf("spec: [%s] %s does not apply to command %q", f.section, f.key, command)
		}
	}
	return fmt.Errorf("spec: section [%s] does not apply to command %q", f.section, command)
}
