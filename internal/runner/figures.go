package runner

import (
	"bytes"
	"io"

	"pargraph/internal/harness"
	"pargraph/internal/spec"
	"pargraph/internal/trace"
)

// runFigures is cmd/figures' execution body: regenerate the selected
// figures, tables, and experiments at the spec's scale, rendering the
// report in the spec's format. A sharded run computes its cells into
// the result cache and renders nothing: its other cells' slots are
// zero.
func (rc *runCtx) runFigures() error {
	sp := rc.sp
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

	// Fig. 1 and Fig. 2 are filed in the report when they first run, so
	// the summary reuses them (and a -summary -json report carries both).
	rep := &harness.Report{}
	fig1 := func() (*harness.Fig1Result, error) {
		if rep.Fig1 == nil {
			res, err := rc.env.RunFig1(fig1P)
			if err != nil {
				return nil, err
			}
			rep.Fig1 = res
		}
		return rep.Fig1, nil
	}
	fig2 := func() (*harness.Fig2Result, error) {
		if rep.Fig2 == nil {
			res, err := rc.env.RunFig2(fig2P)
			if err != nil {
				return nil, err
			}
			rep.Fig2 = res
		}
		return rep.Fig2, nil
	}

	// The selected sections in report order: the paper's figures and
	// table, the summary, then the experiments.
	var sections []func() (any, error)
	add := func(on bool, section func() (any, error)) {
		if on {
			sections = append(sections, section)
		}
	}
	add(f.All || f.Fig == 1, func() (any, error) { return fig1() })
	add(f.All || f.Fig == 2, func() (any, error) { return fig2() })
	add(f.All || f.Table == 1, func() (any, error) { return rc.env.RunTable1(table1P) })
	add(f.All || f.Summary, func() (any, error) {
		f1, err := fig1()
		if err != nil {
			return nil, err
		}
		f2, err := fig2()
		if err != nil {
			return nil, err
		}
		// The headline ratios derive from every fig1/fig2 cell, so a
		// shard, holding only its slice of them, skips the derivation.
		if !render {
			return nil, nil
		}
		return harness.Summarize(f1, f2)
	})
	exps := rc.experiments(scale, coloringP)
	for _, name := range spec.FigureExps {
		add(f.All || f.Exp == name, exps[name])
	}

	var buf bytes.Buffer
	for _, section := range sections {
		res, err := section()
		if err != nil {
			return err
		}
		if !render {
			continue
		}
		rep.Add(res)
		switch f.Format {
		case "text":
			res.(interface{ WriteText(io.Writer) }).WriteText(&buf)
		case "csv": // Fig. 1, Fig. 2 and Table 1 only (spec.Validate)
			if err := res.(interface{ WriteCSV(io.Writer) error }).WriteCSV(&buf); err != nil {
				return err
			}
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

	// The report (a file, or stdout), then the trace/attr files rendered
	// from the whole-run recorder; the manifest records them in that
	// same order.
	rc.record("report", sp.Output.Report, buf.Bytes())
	return rc.traceArtifacts(rec)
}

// experiments maps each -exp name (spec.FigureExps) to its run at
// scale; each returns its result, which runFigures files in the report
// and renders.
func (rc *runCtx) experiments(scale harness.Scale, coloringP harness.ColoringParams) map[string]func() (any, error) {
	return map[string]func() (any, error){
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
