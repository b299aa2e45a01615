// Command listrank runs the paper's list-ranking kernel on a chosen
// machine and reports time and (for the MTA) processor utilization.
//
// Usage:
//
//	listrank -n 1048576 -layout random -machine mta -p 8
//	listrank -n 1048576 -layout ordered -machine smp -p 4
//	listrank -n 1048576 -machine native -p 8     # real goroutines, wall clock
//	listrank -n 1048576 -machine seq             # sequential baseline
//	listrank -n 1048576 -machine mta -trace lr.json   # Chrome trace of the regions
//	listrank -spec lr.toml -emit-manifest lr.manifest.json
//
// Each flag but -spec, -no-result-cache, -cache-stats and
// -cache-max-bytes sets the spec key of the same meaning
// (internal/spec); explicit flags override a -spec file.
package main

import (
	"context"
	"flag"
	"log"
	"os"

	"pargraph/internal/cmdutil"
	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("listrank: ")
	sp, opts, err := runner.NewCommandLine(flag.CommandLine, spec.CmdListrank).Parse(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	// The spec clamps these to their defaults; an explicit flag value
	// stays strict so a typo'd 0 fails instead of silently running the
	// default. Both defaults are positive, so a non-positive value came
	// from the command line.
	for _, name := range []string{"nodes-per-walk", "sublists-per-proc"} {
		if err := cmdutil.CheckPositive("-"+name, flag.Lookup(name).Value.(flag.Getter).Get().(int)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := runner.Run(context.Background(), sp, opts); err != nil {
		log.Fatal(err)
	}
}
