package runner

import (
	"bytes"
	"fmt"

	"pargraph/internal/harness"
	"pargraph/internal/list"
	"pargraph/internal/trace"
)

// runProfile is cmd/profile's execution body: one kernel under
// cycle-attribution tracing, with the attribution (and optionally a
// utilization timeline) on stdout and a Chrome trace as a file
// artifact. A sharded run (-machine both split across processes)
// computes its machine's cell into the result cache and renders
// nothing.
func (rc *runCtx) runProfile() error {
	sp := rc.sp
	p := &sp.Profile

	layout := list.Random
	if p.Layout == "ordered" {
		layout = list.Ordered
	}
	// The run traces into one recorder, sampling MTA regions at the
	// spec's granularity, the way runFigures traces; every rendering
	// below reads it. Shards trace too: trace mode is part of each
	// cell's result key.
	rec := &trace.Recorder{}
	rc.env.TraceSink, rc.env.TraceSampleCycles = rec, p.Sample
	runs, err := rc.env.RunProfile(harness.ProfileParams{
		Kernel: p.Kernel, Machine: p.Machine,
		N: p.N, Procs: p.Procs, Layout: layout,
		Seed: sp.Run.Seed,
	})
	if err != nil {
		return err
	}

	if rc.env.Shard.Active() {
		return nil
	}

	// Run headers, the attribution in the requested format, and an
	// optional utilization timeline.
	var buf bytes.Buffer
	for _, run := range runs {
		events := 0
		for _, ev := range rec.Events {
			if ev.Machine == run.Machine {
				events++
			}
		}
		fmt.Fprintf(&buf, "%s %s n=%d p=%d: %.0f cycles (%.6f s), %d trace events\n",
			run.Machine, p.Kernel, p.N, p.Procs, run.Cycles, run.Seconds, events)
	}
	fmt.Fprintln(&buf)
	switch p.Attr {
	case "table":
		rec.WriteAttribution(&buf)
	case "csv":
		if err := rec.WriteAttributionCSV(&buf); err != nil {
			return err
		}
	case "json":
		if err := rec.WriteAttributionJSON(&buf); err != nil {
			return err
		}
	}
	if p.Timeline > 0 {
		rec.WriteTimeline(&buf, p.Timeline)
	}
	rc.record("stdout", "", buf.Bytes())
	return rc.traceArtifacts(rec)
}
