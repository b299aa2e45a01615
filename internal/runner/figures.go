package runner

import (
	"bytes"
	"fmt"
	"io"

	"pargraph/internal/harness"
	"pargraph/internal/trace"
)

// runFigures is cmd/figures' execution body: regenerate the selected
// figures, tables, and experiments at the spec's scale, rendering the
// report in the spec's format. A sharded run computes its cells into
// the result cache and renders nothing: its other cells' slots are
// zero.
func (rc *runCtx) runFigures() error {
	sp, o := rc.sp, rc.o
	f := &sp.Figures
	scale, err := harness.ParseScale(sp.Run.Scale)
	if err != nil {
		return err
	}
	render := !rc.env.Shard.Active()

	// Tracing stays on for shards: trace mode is part of each cell's
	// result key, so shards must store the entries the traced merge
	// run looks up.
	var rec *trace.Recorder
	if sp.Output.Trace != "" || sp.Output.Attr != "" {
		rec = &trace.Recorder{}
		rc.env.TraceSink = rec
	}

	text := render && f.Format == "text"
	csvMode := render && f.Format == "csv"

	// Scale defaults, with the spec's sweep-axis overrides applied.
	fig1P := harness.DefaultFig1(scale)
	fig2P := harness.DefaultFig2(scale)
	table1P := harness.DefaultTable1(scale)
	coloringP := harness.DefaultColoring(scale)
	if len(f.Procs) > 0 {
		fig1P.Procs = f.Procs
		fig2P.Procs = f.Procs
		table1P.Procs = f.Procs
		coloringP.Procs = f.Procs
	}
	if len(f.Sizes) > 0 {
		fig1P.Sizes = f.Sizes
	}
	if len(f.EdgeFactors) > 0 {
		fig2P.EdgeFactors = f.EdgeFactors
	}

	rep := &harness.Report{}
	var buf bytes.Buffer
	out := &buf

	runFig1 := func() (*harness.Fig1Result, error) {
		if rep.Fig1 == nil {
			res, err := rc.env.RunFig1(fig1P)
			if err != nil {
				return nil, err
			}
			rep.Fig1 = res
		}
		return rep.Fig1, nil
	}
	runFig2 := func() (*harness.Fig2Result, error) {
		if rep.Fig2 == nil {
			res, err := rc.env.RunFig2(fig2P)
			if err != nil {
				return nil, err
			}
			rep.Fig2 = res
		}
		return rep.Fig2, nil
	}

	if f.All || f.Fig == 1 {
		r, err := runFig1()
		if err != nil {
			return err
		}
		if text {
			r.WriteText(out)
		}
		if csvMode {
			if err := r.WriteCSV(out); err != nil {
				return err
			}
		}
	}
	if f.All || f.Fig == 2 {
		r, err := runFig2()
		if err != nil {
			return err
		}
		if text {
			r.WriteText(out)
		}
		if csvMode {
			if err := r.WriteCSV(out); err != nil {
				return err
			}
		}
	}
	if f.All || f.Table == 1 {
		if rep.Table1, err = rc.env.RunTable1(table1P); err != nil {
			return err
		}
		if text {
			rep.Table1.WriteText(out)
		}
		if csvMode {
			if err := rep.Table1.WriteCSV(out); err != nil {
				return err
			}
		}
	}
	if f.All || f.Summary {
		f1, err := runFig1()
		if err != nil {
			return err
		}
		f2, err := runFig2()
		if err != nil {
			return err
		}
		// The headline ratios derive from every fig1/fig2 cell, so a
		// shard, holding only its slice of them, skips the derivation.
		if render {
			sum, err := harness.Summarize(f1, f2)
			if err != nil {
				return err
			}
			rep.Summary = sum
			if text {
				sum.WriteText(out)
			}
		}
	}

	// Each experiment returns its result, which runExp files in the
	// report and writes out.
	exps := map[string]func() (any, error){
		"saturation": func() (any, error) {
			return rc.env.RunSaturation([]int{1, 2, 4, 8}, []int{100, 1000, 10000}, 7)
		},
		"streams": func() (any, error) {
			return rc.env.RunStreams(sizeFor(scale, 1<<16, 1<<19, 1<<21), 1,
				[]int{1, 2, 4, 8, 16, 40, 80, 128}, 7)
		},
		"sched": func() (any, error) {
			return rc.env.RunAblScheduling(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, 7)
		},
		"hashing": func() (any, error) {
			return rc.env.RunAblHashing(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8)
		},
		"sublists": func() (any, error) {
			return rc.env.RunAblSublists(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, []int{1, 2, 4, 8, 16, 64}, 7)
		},
		"shortcut": func() (any, error) {
			return rc.env.RunAblShortcut(sizeFor(scale, 1<<11, 1<<14, 1<<17), 8, 4, 7)
		},
		"cache": func() (any, error) {
			return rc.env.RunAblCache(sizeFor(scale, 1<<17, 1<<19, 1<<21), 1, []int{1, 2, 4, 8, 16}, 7)
		},
		"assoc": func() (any, error) {
			return rc.env.RunAblAssociativity(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, []int{1, 2, 4}, 7)
		},
		"reduction": func() (any, error) {
			return rc.env.RunAblReduction(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8)
		},
		"treeeval": func() (any, error) {
			sz := sizeFor(scale, 1<<13, 1<<16, 1<<18)
			return rc.env.RunTreeEval([]int{sz / 4, sz / 2, sz}, 8, 7)
		},
		"coloring": func() (any, error) {
			return rc.env.RunColoring(coloringP)
		},
		"colorsched": func() (any, error) {
			return rc.env.RunAblColoringSched(sizeFor(scale, 10, 13, 16), 8, 8, 7)
		},
	}
	runExp := func(name string) error {
		res, err := exps[name]()
		if err != nil {
			return err
		}
		switch v := res.(type) {
		case *harness.SaturationResult:
			rep.Saturation = v
		case *harness.StreamsResult:
			rep.Streams = v
		case *harness.TreeEvalResult:
			rep.TreeEval = v
		case *harness.ColoringResult:
			rep.Coloring = v
		case *harness.AblationResult:
			rep.Ablations = append(rep.Ablations, v)
		}
		if text {
			res.(interface{ WriteText(io.Writer) }).WriteText(out)
		}
		return nil
	}
	if f.All {
		for _, name := range []string{"saturation", "streams", "sched", "hashing", "sublists", "shortcut", "cache", "assoc", "reduction", "treeeval", "coloring", "colorsched"} {
			if err := runExp(name); err != nil {
				return err
			}
		}
	} else if f.Exp != "" {
		if err := runExp(f.Exp); err != nil {
			return err
		}
	}

	if !render {
		return nil
	}

	if f.Format == "json" {
		if err := rep.WriteJSON(&buf); err != nil {
			return err
		}
	}

	// Emit: report (file or stdout), then trace/attr files rendered
	// from the whole-run recorder; the manifest records them in that
	// same order.
	if sp.Output.Report != "" {
		if err := rc.emit("report", sp.Output.Report, buf.Bytes(), ""); err != nil {
			return err
		}
	} else {
		if _, err := o.Stdout.Write(buf.Bytes()); err != nil {
			return err
		}
		rc.record("report", "", buf.Bytes())
	}

	if err := rc.traceArtifacts(rec); err != nil {
		return err
	}

	if text {
		fmt.Fprintln(o.Stdout, "done.")
	}
	return nil
}

func sizeFor(s harness.Scale, small, medium, paper int) int {
	switch s {
	case harness.Small:
		return small
	case harness.Medium:
		return medium
	default:
		return paper
	}
}
