package runner

import (
	"bytes"
	"fmt"

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
		rep.Table1 = rc.env.RunTable1(table1P)
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

	addAbl := func(a *harness.AblationResult) interface{} {
		rep.Ablations = append(rep.Ablations, a)
		return a
	}
	exps := map[string]func() (interface{}, error){
		"saturation": func() (interface{}, error) {
			rep.Saturation = rc.env.RunSaturation([]int{1, 2, 4, 8}, []int{100, 1000, 10000}, 7)
			return rep.Saturation, nil
		},
		"streams": func() (interface{}, error) {
			rep.Streams = rc.env.RunStreams(sizeFor(scale, 1<<16, 1<<19, 1<<21), 1,
				[]int{1, 2, 4, 8, 16, 40, 80, 128}, 7)
			return rep.Streams, nil
		},
		"sched": func() (interface{}, error) {
			return addAbl(rc.env.RunAblScheduling(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, 7)), nil
		},
		"hashing": func() (interface{}, error) {
			return addAbl(rc.env.RunAblHashing(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8)), nil
		},
		"sublists": func() (interface{}, error) {
			return addAbl(rc.env.RunAblSublists(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, []int{1, 2, 4, 8, 16, 64}, 7)), nil
		},
		"shortcut": func() (interface{}, error) {
			return addAbl(rc.env.RunAblShortcut(sizeFor(scale, 1<<11, 1<<14, 1<<17), 8, 4, 7)), nil
		},
		"cache": func() (interface{}, error) {
			return addAbl(rc.env.RunAblCache(sizeFor(scale, 1<<17, 1<<19, 1<<21), 1, []int{1, 2, 4, 8, 16}, 7)), nil
		},
		"assoc": func() (interface{}, error) {
			return addAbl(rc.env.RunAblAssociativity(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8, []int{1, 2, 4}, 7)), nil
		},
		"reduction": func() (interface{}, error) {
			return addAbl(rc.env.RunAblReduction(sizeFor(scale, 1<<16, 1<<19, 1<<21), 8)), nil
		},
		"treeeval": func() (interface{}, error) {
			sz := sizeFor(scale, 1<<13, 1<<16, 1<<18)
			res, err := rc.env.RunTreeEval([]int{sz / 4, sz / 2, sz}, 8, 7)
			if err != nil {
				return nil, err
			}
			rep.TreeEval = res
			return res, nil
		},
		"coloring": func() (interface{}, error) {
			res, err := rc.env.RunColoring(coloringP)
			if err != nil {
				return nil, err
			}
			rep.Coloring = res
			return res, nil
		},
		"colorsched": func() (interface{}, error) {
			return addAbl(rc.env.RunAblColoringSched(sizeFor(scale, 10, 13, 16), 8, 8, 7)), nil
		},
	}
	writeExp := func(res interface{}) {
		if !text {
			return
		}
		switch v := res.(type) {
		case *harness.SaturationResult:
			v.WriteText(out)
		case *harness.StreamsResult:
			v.WriteText(out)
		case *harness.TreeEvalResult:
			v.WriteText(out)
		case *harness.ColoringResult:
			v.WriteText(out)
		case *harness.AblationResult:
			v.WriteText(out)
		}
	}
	if f.All {
		for _, name := range []string{"saturation", "streams", "sched", "hashing", "sublists", "shortcut", "cache", "assoc", "reduction", "treeeval", "coloring", "colorsched"} {
			res, err := exps[name]()
			if err != nil {
				return err
			}
			writeExp(res)
		}
	} else if f.Exp != "" {
		res, err := exps[f.Exp]()
		if err != nil {
			return err
		}
		writeExp(res)
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
