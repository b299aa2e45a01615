package mta

// Trace-sink integration: with a trace.Sink attached the machine emits
// one attribution event per region and barrier, at region commit, after
// the deterministic worker-tally merge — so the event stream is
// bit-identical for every SetHostWorkers value. The attribution follows
// §2.2's cost terms: issue slots doing work, slots idle while memory
// latency goes unhidden, and region stretch imposed by bank-conflict or
// FEB/fetch-add hotspot floors.

import (
	"pargraph/internal/sim"
	"pargraph/internal/trace"
)

// SetSink attaches a trace sink; nil detaches it. Attach before running
// a kernel; tracing does not change the simulated timing. Reset keeps
// the sink attached (it is machine configuration, like the host worker
// count) but restarts event numbering.
func (m *Machine) SetSink(s trace.Sink) { m.sink = s }

// SetTraceSampling sets the within-region sampling interval in
// simulated cycles: parallel regions on the exact path additionally
// carry an issue-slot timeline at that granularity (see
// sim.RunRegionTimeline). Zero (the default) disables sampling; it has
// no effect without a sink.
func (m *Machine) SetTraceSampling(cycles float64) { m.sampleCy = cycles }

// floors are a region's serialization lower bounds: the bank-conflict
// bound, the FEB hotspot bound, and the shared dynamic-schedule counter
// bound. The region's wall time is at least the largest of the three.
type floors struct {
	bank    float64
	hotspot float64
	ctr     float64
	retries int64
}

func (f floors) max() float64 {
	v := f.bank
	if f.hotspot > v {
		v = f.hotspot
	}
	if f.ctr > v {
		v = f.ctr
	}
	return v
}

// stallCategory names the binding floor: bank conflicts, or a hotspot
// (the FEB word and the fetch-add loop counter serialize the same way).
func (f floors) stallCategory() string {
	if f.bank >= f.hotspot && f.bank >= f.ctr {
		return trace.CatBankStall
	}
	return trace.CatHotspot
}

// emitRegion builds and emits the attribution event for a committed
// parallel or serial region. fluid is the region's pre-floor wall time;
// res carries the final (possibly floored) cycles and the issue slots
// consumed. idleCat attributes the capacity idle during the fluid
// portion: mem_stall for parallel regions (latency not hidden, loop
// tails), serial for single-thread sections.
func (m *Machine) emitRegion(kind string, items int, start, fluid float64, res sim.RegionResult, fl floors, idleCat string, samples []float64) {
	procs := float64(m.cfg.Procs)
	attr := make(map[string]float64, 3)
	if res.Issued > 0 {
		attr[trace.CatIssue] = res.Issued
	}
	if idle := float64(fluid*procs) - res.Issued; idle > 1e-9 {
		attr[idleCat] = idle
	}
	if stall := (res.Cycles - fluid) * procs; stall > 1e-9 {
		attr[fl.stallCategory()] = stall
	}
	ev := trace.Event{
		Machine: "MTA", Kind: kind, Seq: m.evSeq, Items: items,
		Start: start, Cycles: res.Cycles,
		Procs: m.cfg.Procs, ClockMHz: m.cfg.ClockMHz,
		Issued: res.Issued, Attr: attr,
	}
	if samples != nil {
		ev.Samples = samples
		ev.SampleCy = m.sampleCy
	}
	m.evSeq++
	m.sink.Emit(ev)
}

// emitBarrier emits the attribution event for one full-machine barrier.
func (m *Machine) emitBarrier(start float64) {
	cy := m.cfg.BarrierCycles
	ev := trace.Event{
		Machine: "MTA", Kind: "barrier", Seq: m.evSeq,
		Start: start, Cycles: cy,
		Procs: m.cfg.Procs, ClockMHz: m.cfg.ClockMHz,
		Attr: map[string]float64{trace.CatBarrier: cy * float64(m.cfg.Procs)},
	}
	m.evSeq++
	m.sink.Emit(ev)
}
