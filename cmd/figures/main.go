// Command figures regenerates every table and figure of the paper's
// evaluation section, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	figures -all                 # everything at the default scale
//	figures -fig 1               # Fig. 1 (list ranking, both machines)
//	figures -fig 2               # Fig. 2 (connected components)
//	figures -table 1             # Table 1 (MTA utilization)
//	figures -summary             # §5 headline ratios (E4)
//	figures -exp saturation      # §3 saturation claim (E5)
//	figures -exp streams         # §2.2 streams claim (E6)
//	figures -exp treeeval        # future work: tree contraction (E7)
//	figures -exp coloring        # speculative coloring on both machines (E8)
//	figures -exp colorsched      # A8: coloring loop scheduling ablation
//	figures -exp sched|hashing|sublists|shortcut|cache|assoc|reduction
//	figures -scale small|medium|paper
//	figures -all -json           # machine-readable output
//	figures -fig 1 -csv          # long-format CSV for plotting
//	figures -fig 1 -trace t.json # Chrome trace of every simulated run
//	figures -fig 2 -attr a.csv   # per-region cycle attribution as CSV
//
// The whole invocation can instead be described declaratively
// (internal/spec) and stamped with a reproducibility manifest
// (internal/manifest). Each flag but -spec, -json, -csv, -cpuprofile,
// -memprofile, -no-result-cache, -cache-stats and -cache-max-bytes sets
// the spec key of the same meaning, and explicit flags override the
// spec's fields:
//
//	figures -spec specs/e1_fig1.toml
//	figures -spec specs/e1_fig1.toml -emit-manifest fig1.manifest.json
//	reproduce fig1.manifest.json
//
// Sweeps can be sharded across processes sharing one content-addressed
// cache (see scripts/shard_run.sh). A shard stores the results of the
// cells it owns in the cache and writes nothing else; the same command
// without -shard on that cache then replays every cell and writes the
// output, byte-identical to a run that computed it all:
//
//	figures -fig 1 -shard 0/4 -cache-dir /tmp/pgc
//	figures -fig 1 -shard 1/4 -cache-dir /tmp/pgc
//	...
//	figures -fig 1 -cache-dir /tmp/pgc   # the merge: every cell a cache hit
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"pargraph/internal/cmdutil"
	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	cl := runner.NewCommandLine(flag.CommandLine, spec.CmdFigures)
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	csvOut := flag.Bool("csv", false, "emit Fig. 1, Fig. 2 and Table 1 as CSV instead of tables (not -summary, -exp or -all)")
	cpuProf := flag.String("cpuprofile", "", "write a Go CPU profile of the whole run to this file")
	memProf := flag.String("memprofile", "", "write a Go heap profile at exit to this file")
	sp, opts, err := cl.Parse(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *jsonOut && *csvOut:
		log.Fatal("choose one of -json and -csv")
	case *jsonOut:
		sp.Figures.Format = "json"
	case *csvOut:
		sp.Figures.Format = "csv"
	}
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopCPU, err := cmdutil.StartCPUProfile(*cpuProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := cmdutil.WriteHeapProfile(*memProf); err != nil {
			log.Fatal(err)
		}
	}()

	opts.Interrupt = ctx
	if err := runner.Run(sp, opts); err != nil {
		log.Fatal(err)
	}
}
