package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report bundles any subset of the suite's results for machine-readable
// output (`cmd/figures -json`). Nil fields are omitted.
type Report struct {
	Fig1       *Fig1Result       `json:"fig1,omitempty"`
	Fig2       *Fig2Result       `json:"fig2,omitempty"`
	Table1     *Table1Result     `json:"table1,omitempty"`
	Summary    *SummaryResult    `json:"summary,omitempty"`
	Saturation *SaturationResult `json:"saturation,omitempty"`
	Streams    *StreamsResult    `json:"streams,omitempty"`
	TreeEval   *TreeEvalResult   `json:"treeEval,omitempty"`
	Coloring   *ColoringResult   `json:"coloring,omitempty"`
	Ablations  []*AblationResult `json:"ablations,omitempty"`
}

// Add files one section's result in its field; ablations keep the
// order they were added in.
func (r *Report) Add(res any) {
	switch v := res.(type) {
	case *Fig1Result:
		r.Fig1 = v
	case *Fig2Result:
		r.Fig2 = v
	case *Table1Result:
		r.Table1 = v
	case *SummaryResult:
		r.Summary = v
	case *SaturationResult:
		r.Saturation = v
	case *StreamsResult:
		r.Streams = v
	case *TreeEvalResult:
		r.TreeEval = v
	case *ColoringResult:
		r.Coloring = v
	case *AblationResult:
		r.Ablations = append(r.Ablations, v)
	default:
		panic(fmt.Sprintf("harness: a report has no section for %T", res))
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
