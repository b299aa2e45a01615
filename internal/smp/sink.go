package smp

// Trace-sink integration: with a trace.Sink attached the machine emits
// one attribution event per phase, sequential section, and barrier. The
// attribution follows the cache-hierarchy view of §2.1: each simulated
// processor's busy cycles split by which level served each reference,
// plus end-of-phase imbalance, dispatch overhead, and bus saturation.
// Events are built from the serial processor-order merge, so the stream
// is bit-identical for every SetHostWorkers value. Phases are atomic in
// this model — there is no within-phase timing structure to sample —
// so events carry per-processor busy cycles instead of a sub-phase
// timeline.

import "pargraph/internal/trace"

// SetSink attaches a trace sink; nil detaches it. Attach before running
// a kernel; tracing does not change the simulated timing. Reset keeps
// the sink attached but restarts event numbering.
func (m *Machine) SetSink(s trace.Sink) { m.sink = s }

// Sink returns the attached trace sink, or nil.
func (m *Machine) Sink() trace.Sink { return m.sink }

// hierarchyAttr fills attr with the cycles spent at each memory level
// over the stats delta from before, and returns their sum — the busy
// processor cycles of the span, folded from the same counters as
// Proc.busy.
func (m *Machine) hierarchyAttr(attr map[string]float64, before Stats) float64 {
	after := m.stats
	compute := float64(after.Computes - before.Computes)
	l1 := float64(after.L1Hits-before.L1Hits) * m.cfg.L1HitCy
	l2 := float64(after.L2Hits-before.L2Hits) * m.cfg.L2HitCy
	mem := float64(after.Misses-before.Misses) * m.cfg.MemCy
	if compute > 0 {
		attr[trace.CatCompute] = compute
	}
	if l1 > 0 {
		attr[trace.CatL1] = l1
	}
	if l2 > 0 {
		attr[trace.CatL2] = l2
	}
	if mem > 0 {
		attr[trace.CatMem] = mem
	}
	return compute + l1 + l2 + mem
}

// emitPhase emits the attribution event for one parallel phase. cycles
// is the phase's final wall time; maxBusy the slowest processor's busy
// cycles; busStall the stretch past compute time imposed by the bus.
func (m *Machine) emitPhase(start, cycles, maxBusy, busStall float64, before Stats, procBusy []float64) {
	procs := float64(m.cfg.Procs)
	attr := make(map[string]float64, 7)
	busy := m.hierarchyAttr(attr, before)
	if imb := maxBusy*procs - busy; imb > 1e-9 {
		attr[trace.CatImbalance] = imb
	}
	attr[trace.CatDispatch] = m.cfg.PhaseCy * procs
	if busStall > 0 {
		attr[trace.CatBusStall] = busStall * procs
	}
	ev := trace.Event{
		Machine: "SMP", Kind: "phase", Seq: m.evSeq, Items: m.cfg.Procs,
		Start: start, Cycles: cycles,
		Procs: m.cfg.Procs, ClockMHz: m.cfg.ClockMHz,
		Issued: busy, Attr: attr, ProcBusy: procBusy,
	}
	m.evSeq++
	m.sink.Emit(ev)
}

// emitSequential emits the attribution event for a sequential section:
// processor 0's busy cycles by memory level, the idle capacity of the
// other processors, and any bus stretch.
func (m *Machine) emitSequential(start, cycles float64, before Stats) {
	procs := float64(m.cfg.Procs)
	attr := make(map[string]float64, 6)
	busy := m.hierarchyAttr(attr, before)
	if stall := cycles - busy; stall > 1e-9 {
		attr[trace.CatBusStall] = stall
	}
	if idle := cycles * (procs - 1); idle > 0 {
		attr[trace.CatSerial] = idle
	}
	ev := trace.Event{
		Machine: "SMP", Kind: "sequential", Seq: m.evSeq,
		Start: start, Cycles: cycles,
		Procs: m.cfg.Procs, ClockMHz: m.cfg.ClockMHz,
		Issued: busy, Attr: attr,
	}
	m.evSeq++
	m.sink.Emit(ev)
}

// emitBarrier emits the attribution event for one software barrier.
func (m *Machine) emitBarrier(start, cycles float64) {
	ev := trace.Event{
		Machine: "SMP", Kind: "barrier", Seq: m.evSeq,
		Start: start, Cycles: cycles,
		Procs: m.cfg.Procs, ClockMHz: m.cfg.ClockMHz,
		Attr: map[string]float64{trace.CatBarrier: cycles * float64(m.cfg.Procs)},
	}
	m.evSeq++
	m.sink.Emit(ev)
}
