// Command coloring runs the speculative greedy-coloring workload
// (Gebremedhin–Manne rounds, as in Çatalyürek, Feo et al.'s follow-up
// study) on a chosen machine and reports palette size, rounds,
// conflicts per round, and simulated time.
//
// Usage:
//
//	coloring -gen rmat -n 4096 -m 32768 -machine mta -p 8
//	coloring -gen mesh2d -rows 64 -cols 64 -machine smp -p 4
//	coloring -gen gnm -n 100000 -m 800000 -machine seq
//	coloring -machine mta -trace t.json -attr a.csv -workers 4
//	coloring -spec c.toml -emit-manifest c.manifest.json
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

	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coloring: ")
	sp, opts, err := runner.NewCommandLine(flag.CommandLine, spec.CmdColoring).Parse(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := runner.Run(context.Background(), sp, opts); err != nil {
		log.Fatal(err)
	}
}
