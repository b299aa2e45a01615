// Command profile runs one kernel under cycle-attribution tracing and
// renders where the machine's capacity went: a per-region attribution
// table on stdout, optionally a Chrome trace_event JSON file (load it in
// about://tracing or https://ui.perfetto.dev) and a bucketed utilization
// timeline.
//
// Usage:
//
//	profile -kernel fig1 -machine mta -trace out.json
//	profile -kernel fig2 -machine both -attr csv
//	profile -kernel prefix -layout ordered -timeline 20000
//	profile -kernel treecon -n 4096 -sample 500
//	profile -kernel coloring -machine both -attr table
//	profile -spec prof.toml -emit-manifest prof.manifest.json
//
// Each flag but -spec, -cpuprofile, -memprofile, -no-result-cache,
// -cache-stats and -cache-max-bytes sets the spec key of the same
// meaning (internal/spec); explicit flags override a -spec file.
//
// All output is bit-identical for any -workers value: events are
// emitted at region commit, after the deterministic replay merge.
//
// With -machine both, the two machines can run as separate shard
// processes sharing one cache directory. Each stores its machine's
// result there and prints nothing; the same command without -shard
// then replays both into the exact unsharded output:
//
//	profile -kernel fig1 -shard 0/2 -cache-dir /tmp/pgc
//	profile -kernel fig1 -shard 1/2 -cache-dir /tmp/pgc
//	profile -kernel fig1 -cache-dir /tmp/pgc
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
	log.SetPrefix("profile: ")
	cl := runner.NewCommandLine(flag.CommandLine, spec.CmdProfile)
	cpuProf := flag.String("cpuprofile", "", "write a Go CPU profile of the whole run to this file")
	memProf := flag.String("memprofile", "", "write a Go heap profile at exit to this file")
	sp, opts, err := cl.Parse(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}

	err = cmdutil.RunProfiled(*cpuProf, *memProf, func(ctx context.Context) error {
		return runner.Run(ctx, sp, opts)
	})
	if err != nil {
		log.Fatal(err)
	}
}
