// Command concomp runs the paper's connected-components kernel
// (Shiloach–Vishkin) on a chosen machine and reports time, utilization,
// and the component count.
//
// Usage:
//
//	concomp -n 1048576 -m 4194304 -machine mta -p 8
//	concomp -gen mesh2d -rows 1024 -cols 1024 -machine smp -p 4
//	concomp -n 1048576 -m 8388608 -machine native -p 8
//	concomp -n 1048576 -m 8388608 -machine seq
//	concomp -gen rmat -n 65536 -m 524288 -machine mta -trace cc.json
//	concomp -spec cc.toml -emit-manifest cc.manifest.json
//
// Each flag but -spec, -out, -no-result-cache, -cache-stats and
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
	log.SetPrefix("concomp: ")
	cl := runner.NewCommandLine(flag.CommandLine, spec.CmdConcomp)
	out := flag.String("out", "", "also write the graph to a DIMACS `p edge` file")
	sp, opts, err := cl.Parse(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	opts.DumpGraph = *out
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := runner.Run(context.Background(), sp, opts); err != nil {
		log.Fatal(err)
	}
}
