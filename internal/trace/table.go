package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// Per-region attribution rendering: one row per event, one column per
// category, in the canonical Categories order — the table the harness
// and cmd/profile print under every figure so "where did the cycles go"
// has a per-region answer.

// WriteAttribution prints the attribution table as aligned text, one
// block per machine present in the trace.
func (r *Recorder) WriteAttribution(w io.Writer) {
	for _, machine := range r.machines() {
		cats := Categories(machine)
		fmt.Fprintf(w, "%s per-region attribution (slot-cycles; %% of region capacity)\n", machine)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "#\tkind\titems\tstart\tcycles\tutil")
		for _, c := range cats {
			fmt.Fprintf(tw, "\t%s", c.Name)
		}
		fmt.Fprintln(tw)
		for _, e := range r.Events {
			if e.Machine != machine {
				continue
			}
			fmt.Fprintf(tw, "%d\t%s\t%d\t%.0f\t%.0f\t%.0f%%", e.Seq, e.Kind, e.Items, e.Start, e.Cycles, e.Utilization()*100)
			capacity := e.Cycles * float64(e.Procs)
			for _, c := range cats {
				v := e.Attr[c.Name]
				if v == 0 {
					fmt.Fprint(tw, "\t-")
				} else {
					fmt.Fprintf(tw, "\t%.0f (%.0f%%)", v, 100*v/capacity)
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()

		// Whole-run totals per category, the row E3/E5 compare against.
		totals := make(map[string]float64)
		var capacity float64
		for _, e := range r.Events {
			if e.Machine != machine {
				continue
			}
			capacity += float64(e.Cycles * float64(e.Procs))
			for cat, v := range e.Attr {
				totals[cat] += v
			}
		}
		if capacity > 0 {
			fmt.Fprint(w, "total:")
			for _, c := range cats {
				if v := totals[c.Name]; v > 0 {
					fmt.Fprintf(w, "  %s %.1f%%", c.Name, 100*v/capacity)
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// WriteAttributionCSV emits the attribution in long format —
// machine,seq,kind,items,start,cycles,utilization,category,slot_cycles —
// one row per (region, category) pair, ready for plotting tools.
func (r *Recorder) WriteAttributionCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"machine", "seq", "kind", "items", "start_cycles", "cycles", "utilization", "category", "slot_cycles"}); err != nil {
		return err
	}
	for _, e := range r.Events {
		for _, c := range Categories(e.Machine) {
			v, ok := e.Attr[c.Name]
			if !ok {
				continue
			}
			rec := []string{
				e.Machine,
				fmt.Sprintf("%d", e.Seq),
				e.Kind,
				fmt.Sprintf("%d", e.Items),
				fmt.Sprintf("%.3f", e.Start),
				fmt.Sprintf("%.3f", e.Cycles),
				fmt.Sprintf("%.6f", e.Utilization()),
				c.Name,
				fmt.Sprintf("%.3f", v),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// attrRegion is the JSON shape of one event in WriteAttributionJSON.
type attrRegion struct {
	Machine     string             `json:"machine"`
	Seq         int                `json:"seq"`
	Kind        string             `json:"kind"`
	Items       int                `json:"items,omitempty"`
	StartCycles float64            `json:"start_cycles"`
	Cycles      float64            `json:"cycles"`
	Utilization float64            `json:"utilization"`
	Attr        map[string]float64 `json:"attr"`
}

// WriteAttributionJSON emits one JSON object per event (map keys sort,
// so output is deterministic).
func (r *Recorder) WriteAttributionJSON(w io.Writer) error {
	out := make([]attrRegion, 0, len(r.Events))
	for _, e := range r.Events {
		out = append(out, attrRegion{
			Machine: e.Machine, Seq: e.Seq, Kind: e.Kind, Items: e.Items,
			StartCycles: e.Start, Cycles: e.Cycles,
			Utilization: e.Utilization(), Attr: e.Attr,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Regions []attrRegion `json:"regions"`
	}{out})
}
