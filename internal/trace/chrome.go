package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event rendering: the JSON Array Format consumed by
// about://tracing and Perfetto. Timestamps are microseconds; simulated
// cycles are converted at each machine's clock rate, so a trace holding
// both machines shows them on one comparable time axis.
//
// Layout: one process per machine, one thread track per simulated
// processor plus a "machine" track (tid 0) carrying barriers and
// within-region utilization samples as counter events. SMP phase events
// on a processor track last that processor's busy cycles, so phase
// imbalance is visible as ragged right edges; MTA regions span all
// processor tracks uniformly, as the barrel processors execute regions
// together.

// chromeEvent is one trace_event record. Fields marshal in declaration
// order and map keys sort, so rendering is byte-deterministic for a
// given event stream.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   jsonMicros             `json:"ts"`
	Dur  jsonMicros             `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// jsonMicros formats a microsecond quantity with fixed precision so the
// output does not flip between %g exponent forms across magnitudes.
type jsonMicros float64

func (m jsonMicros) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%.3f", float64(m))), nil
}

// round3 keeps args readable (and stable) without dumping full float64
// precision into the JSON.
func round3(v float64) jsonMicros { return jsonMicros(v) }

// WriteChromeTrace renders the recorded events as Chrome trace JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	var evs []chromeEvent

	pids := make(map[string]int)
	for i, name := range r.machines() {
		pid := i + 1
		pids[name] = pid
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]interface{}{"name": name + " (simulated)"},
		})
	}

	// Name each machine's tracks once, using the widest Procs seen.
	maxProcs := make(map[string]int)
	for _, e := range r.Events {
		if e.Procs > maxProcs[e.Machine] {
			maxProcs[e.Machine] = e.Procs
		}
	}
	for _, name := range r.machines() {
		pid := pids[name]
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]interface{}{"name": "machine"},
		})
		for p := 0; p < maxProcs[name]; p++ {
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: p + 1,
				Args: map[string]interface{}{"name": fmt.Sprintf("proc %d", p)},
			})
		}
	}

	for _, e := range r.Events {
		pid := pids[e.Machine]
		us := 1.0 / e.ClockMHz // microseconds per cycle
		name := fmt.Sprintf("%s #%d", e.Kind, e.Seq)
		args := map[string]interface{}{
			"cycles":      round3(e.Cycles),
			"utilization": round3(e.Utilization()),
		}
		if e.Items > 0 {
			args["items"] = e.Items
		}
		for cat, slots := range e.Attr {
			args["attr."+cat] = round3(slots)
		}

		switch e.Kind {
		case "barrier":
			evs = append(evs, chromeEvent{
				Name: name, Cat: e.Kind, Ph: "X",
				TS: round3(e.Start * us), Dur: round3(e.Cycles * us),
				PID: pid, TID: 0, Args: args,
			})
		default:
			for p := 0; p < e.Procs; p++ {
				dur := e.Cycles
				if e.ProcBusy != nil {
					dur = e.ProcBusy[p]
				} else if e.Kind == "serial" || e.Kind == "sequential" {
					// A serial section occupies processor 0 only.
					if p > 0 {
						continue
					}
				}
				if dur <= 0 {
					continue
				}
				ev := chromeEvent{
					Name: name, Cat: e.Kind, Ph: "X",
					TS: round3(e.Start * us), Dur: round3(dur * us),
					PID: pid, TID: p + 1,
				}
				if p == 0 {
					ev.Args = args // attach attribution once, not per track
				}
				evs = append(evs, ev)
			}
		}

		// Within-region samples render as a utilization counter track.
		if e.Samples != nil && e.SampleCy > 0 {
			capSlots := e.SampleCy * float64(e.Procs)
			for k, slots := range e.Samples {
				t := e.Start + float64(float64(k)*e.SampleCy)
				evs = append(evs, chromeEvent{
					Name: "utilization", Ph: "C",
					TS: round3(t * us), PID: pid, TID: 0,
					Args: map[string]interface{}{"used": round3(slots / capSlots)},
				})
			}
		}
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
