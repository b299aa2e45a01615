// Package mta models a Cray MTA-2-class multithreaded architecture: flat
// shared memory with hashed addresses and no caches, barrel processors
// that issue one instruction per cycle round-robin over 128 hardware
// streams, near-zero-cost int_fetch_add, and full/empty-bit (FEB)
// synchronization.
//
// The model is a fused trace-driven simulation. Algorithm kernels execute
// natively against real Go data while charging each simulated thread's
// instructions and memory references to a Thread tally; the machine then
// computes each parallel region's wall time and issue-slot utilization
// with the processor-sharing barrel model in internal/sim. Dynamic
// (int_fetch_add) loop scheduling, end-of-loop tails, memory-bank
// conflicts, and FEB hotspots are simulated; they are what make the
// paper's Table 1 utilization figures and the "ordered ≈ random" result
// come out of the model rather than being assumed.
//
// Machine constants default to the MTA-2 values published in the paper:
// 220 MHz clock, 128 streams per processor, roughly 100-cycle memory
// latency, and up to 8 outstanding memory references per stream.
//
// # Host parallelism
//
// The replay itself can use several host goroutines. ParallelFor cuts
// [0, n) into fixed-size chunks that workers claim in index order; with
// SetHostWorkers(w > 1), a region of at least shardMinN iterations is
// replayed by up to w workers, each charging into a private tally that
// is merged deterministically at region end, and a smaller one by the
// calling goroutine alone. Simulated Cycles, Issued, and Stats are
// identical for every worker count; only host wall time changes.
// Region bodies must then be safe to run concurrently for distinct i —
// true for data-parallel loops (disjoint writes, shared reads); loops
// whose iterations communicate through shared memory must use
// ParallelForOrdered, which always replays serially.
//
// # Charges, timing and tapes
//
// A region's charges — per-iteration items or their sums, reference and
// sync counts, loop-counter grabs, the hottest FEB word, a bank-bucket
// histogram — do not depend on the processor or stream count; only
// their timing does. Every live region charges one charges value and
// hands it to the one timing function (timing.go). RecordTape keeps
// those charges as a Tape while a kernel runs, and Play times a tape on
// any machine of the same ChargeClass exactly as a live run of the
// kernel would time there, which lets a sweep run each kernel once per
// input rather than once per processor or stream count.
package mta

import (
	"fmt"
	"sync/atomic"

	"pargraph/internal/par"
	"pargraph/internal/sim"
	"pargraph/internal/trace"
)

// Config describes an MTA machine instance.
type Config struct {
	Procs          int     // number of processors
	StreamsPerProc int     // hardware streams per processor (MTA-2: 128)
	UseStreams     int     // streams requested per processor ("use 100 streams")
	ClockMHz       float64 // processor clock (MTA-2: 220)
	MemLatency     float64 // average memory latency in cycles (~100)
	Lookahead      int     // max outstanding refs per stream (MTA-2: 8)
	HashMemory     bool    // hash logical to physical addresses (MTA-2: on)
	Banks          int     // memory banks machine-wide
	BankCycle      float64 // cycles between accepted requests at one bank
	HotspotCycle   float64 // serialization cost per FEB retry at one word
	BarrierCycles  float64 // cost of a full-machine barrier
	DynChunk       int     // iterations grabbed per int_fetch_add in dynamic loops
}

// DefaultConfig returns the paper's MTA-2 parameters for procs processors.
// The paper's codes request 100 streams per processor via
// `#pragma mta use 100 streams`; UseStreams reflects that.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:          procs,
		StreamsPerProc: 128,
		UseStreams:     100,
		ClockMHz:       220,
		MemLatency:     100,
		Lookahead:      8,
		HashMemory:     true,
		Banks:          128 * procs,
		BankCycle:      1, // a memory module accepts one reference per cycle
		HotspotCycle:   8,
		BarrierCycles:  256,
		DynChunk:       8,
	}
}

func (c Config) validate() error {
	switch {
	case c.Procs <= 0:
		return fmt.Errorf("mta: Procs must be positive, got %d", c.Procs)
	case c.StreamsPerProc <= 0:
		return fmt.Errorf("mta: StreamsPerProc must be positive, got %d", c.StreamsPerProc)
	case c.UseStreams <= 0 || c.UseStreams > c.StreamsPerProc:
		return fmt.Errorf("mta: UseStreams must be in [1,%d], got %d", c.StreamsPerProc, c.UseStreams)
	case c.ClockMHz <= 0:
		return fmt.Errorf("mta: ClockMHz must be positive")
	case c.MemLatency <= 0:
		return fmt.Errorf("mta: MemLatency must be positive")
	case c.Lookahead <= 0:
		return fmt.Errorf("mta: Lookahead must be positive")
	case c.Banks <= 0:
		return fmt.Errorf("mta: Banks must be positive")
	case c.DynChunk <= 0:
		return fmt.Errorf("mta: DynChunk must be positive")
	}
	return nil
}

// Stats accumulates machine activity over a run.
type Stats struct {
	Cycles      float64 // total simulated wall cycles
	Issued      float64 // issue slots consumed across all processors
	Refs        int64   // memory references
	Instrs      int64   // non-memory instructions
	FetchAdds   int64   // int_fetch_add operations
	SyncOps     int64   // FEB synchronized loads/stores
	Retries     int64   // FEB retries induced by hotspots
	Regions     int     // parallel regions executed
	Barriers    int     // barriers executed
	SerialSpans int     // serial sections executed
	BankStalls  float64 // cycles regions were stretched by bank conflicts
}

// Machine is a simulated MTA. The simulated timing is deterministic; with
// SetHostWorkers(w > 1) the replay of data-parallel regions is sharded
// across host goroutines, but a Machine still serves one kernel at a
// time — it is not safe for concurrent use by multiple kernels.
type Machine struct {
	cfg   Config
	stats Stats

	// banks maps addresses to bank buckets (see bankBuckets); every
	// Thread carries a copy. The timing step folds the buckets onto the
	// machine's Banks.
	banks bankMap

	// host is the host worker count and its parked helpers. It survives
	// Reset: parked helpers are reused, not stranded (the pool's
	// finalizer releases them if the Machine itself is dropped).
	host *par.Pool

	// Per-region scratch, reset by ParallelFor/Serial. region is the
	// merged accounting for the current region; wtallies are the pooled
	// per-worker tallies used by sharded replay.
	region   *tally
	wtallies []*tally
	maxExact int
	items    []sim.Item
	// spareItems is the item buffer a pending region is not using (see
	// timeLater); pending is that region, nil when none is.
	spareItems []sim.Item
	pending    *pendingRegion
	// bankCnt holds the region's bucket counts aligned with its touched
	// list; fold is the timing step's per-bank scratch (bankPeak).
	bankCnt []int64
	fold    []int64

	// Pooled per-chunk partial sums for the aggregate (n > maxExact)
	// path. Summing chunk partials in chunk-index order makes the
	// floating-point totals independent of the worker count.
	chunkParts []chunkPartial
	// replay is the region ParallelFor is replaying (see replayChunks).
	replay regionReplay

	// Attribution-event sink (internal/trace); nil means tracing is off
	// and regions pay only a nil check. evSeq numbers emitted events.
	sink     trace.Sink
	sampleCy float64
	evSeq    int

	recordMax int
	recorded  []RecordedRegion

	// tape is non-nil while RecordTape records the running kernel; dict
	// is its reusable item dictionary.
	tape *Tape
	dict itemDict
}

// Sharding granularity for host-parallel replay. Chunk boundaries are
// fixed by chunk size alone — never by the worker count — so partial
// sums merge identically for any SetHostWorkers value.
//
// shardMinN is the one serial rule: a region of fewer iterations
// replays on the calling goroutine whatever the worker count. It is the
// smallest size at which two workers beat one for both a light body
// (three instructions, two stores) and a walk-like one (ten dependent
// load pairs), timed over a run of such regions and barriers on a
// 2-vCPU VM (GOMAXPROCS 2, go1.24.0), medians of nine alternating runs,
// µs per region at workers 1 against workers 2: light 69.5 against
// 80.8 at 1,024 iterations, 108.4 against 105.7 at 1,536, 170.4 against
// 154.9 at 2,048 and 277.4 against 231.1 at 3,072; walk-like 212.0
// against 164.7 at 1,024 and 462.2 against 337.8 at 2,048. Much of the
// gain is the sharded region's schedule overlapping the next region's
// replay (see timeLater).
const (
	shardChunk = 512
	shardMinN  = 2048
)

// chunkPartial is one chunk's partial sums on the aggregate path, padded
// to a 64-byte cache line. Adjacent chunks are usually replayed by
// different workers; without the padding their writes false-share lines
// and the sharded replay serializes on cache-coherence traffic.
type chunkPartial struct {
	issue, crit, max float64
	_                [5]float64
}

// New constructs a machine. It panics on an invalid configuration, which
// is always a programming error at experiment-setup time.
func New(cfg Config) *Machine {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	buckets := bankBuckets(cfg.Banks)
	m := &Machine{
		cfg:      cfg,
		host:     par.NewPool(1),
		region:   newTally(buckets),
		maxExact: 1 << 17,
	}
	m.banks = bankMap{hashed: cfg.HashMemory, n: uint64(buckets)}
	if b := uint64(buckets); b&(b-1) == 0 {
		m.banks.mask = b - 1
	}
	return m
}

// SetHostWorkers sets how many host goroutines replay data-parallel
// regions of at least shardMinN iterations: w < 1 means 1, the default.
// Any count yields identical simulated results. The count is capped at
// runtime.GOMAXPROCS(0) (see par.Pool.Workers). Call it between
// regions, not from inside a kernel body.
func (m *Machine) SetHostWorkers(w int) { m.host.SetWorkers(w) }

// HostWorkers returns how many host goroutines the machine replays on:
// the SetHostWorkers count, capped at GOMAXPROCS. Kernels shard their
// own host-side work, such as the list kernels' walk, over it too.
func (m *Machine) HostWorkers() int { return m.host.Workers() }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns a copy of the accumulated statistics.
func (m *Machine) Stats() Stats {
	m.settle()
	return m.stats
}

// Reset returns the machine to its post-New state, keeping the
// configuration and host worker count: it clears accumulated statistics,
// the trace event numbering, and any region recording armed by
// RecordRegions (both the captured regions and the recording threshold,
// so a reused machine does not silently keep recording). The host worker pool is kept too — its
// parked goroutines are reused by the next region, not stranded or
// respawned.
func (m *Machine) Reset() {
	m.settle()
	m.stats = Stats{}
	m.evSeq = 0
	m.recordMax = 0
	m.recorded = nil
}

// Cycles returns total simulated cycles so far.
func (m *Machine) Cycles() float64 {
	m.settle()
	return m.stats.Cycles
}

// Seconds converts the simulated cycle count to seconds at the machine's
// clock rate.
func (m *Machine) Seconds() float64 {
	m.settle()
	return m.stats.Cycles / (m.cfg.ClockMHz * 1e6)
}

// Utilization is the fraction of issue slots used machine-wide since the
// last Reset — the quantity the paper reports in Table 1.
func (m *Machine) Utilization() float64 {
	m.settle()
	if m.stats.Cycles <= 0 {
		return 0
	}
	return m.stats.Issued / (m.stats.Cycles * float64(m.cfg.Procs))
}

// hash mixes a logical word address to a physical one, destroying spatial
// order exactly as the MTA-2's logical-to-physical scrambling does.
func hash(addr uint64) uint64 {
	z := addr + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bankMap maps a logical word address to its bank bucket.
type bankMap struct {
	hashed bool   // Config.HashMemory
	mask   uint64 // n-1 when n is a power of two, else 0
	n      uint64 // bankBuckets(Config.Banks)
}

func (b *bankMap) of(addr uint64) int {
	if b.hashed {
		addr = hash(addr)
	}
	// Every default Banks = 128·procs up to procs = 8 tallies into 1024
	// buckets, so the charge path's hottest instruction is usually a
	// mask, not a 64-bit modulo. The two are value-identical for a
	// power-of-two bucket count.
	if b.mask != 0 {
		return int(addr & b.mask)
	}
	return int(addr % b.n)
}

// Thread tallies the demand of one simulated thread (one loop iteration
// or one serial section). Kernels call its methods as they execute. All
// charges go to the thread's worker-private tally, so threads replayed on
// different host workers never contend.
type Thread struct {
	tl          *tally
	banks       bankMap // the machine's, copied so a reference reads no config
	instr       float64
	serialRefs  float64
	overlapRefs float64
	syncOps     float64
	rec         *TraceItem // non-nil while the machine records this region
}

// newThread returns a thread charging into tl.
func (m *Machine) newThread(tl *tally) Thread {
	return Thread{tl: tl, banks: m.banks}
}

func (t *Thread) chargeRef(addr uint64) {
	t.tl.refs++
	t.tl.addBank(t.banks.of(addr))
}

// Instr charges n ordinary (non-memory) instructions.
func (t *Thread) Instr(n int) {
	t.instr += float64(n)
	t.tl.instrs += int64(n)
	t.recordOp(OpCompute, n)
}

// Load charges an independent memory read: one that does not feed the
// address of the next reference, so the stream may overlap it with other
// outstanding references (up to the machine's lookahead).
func (t *Thread) Load(addr uint64) {
	t.overlapRefs++
	t.chargeRef(addr)
	t.recordOp(OpMemOverlap, 1)
}

// LoadDep charges a dependent memory read — a pointer chase such as
// j = list[j] — which serializes against the previous reference and
// blocks the stream for the full memory latency.
func (t *Thread) LoadDep(addr uint64) {
	t.serialRefs++
	t.chargeRef(addr)
	t.recordOp(OpMemDep, 1)
}

// Store charges a memory write. Writes do not block the stream.
func (t *Thread) Store(addr uint64) {
	t.overlapRefs++
	t.chargeRef(addr)
	t.recordOp(OpMemOverlap, 1)
}

// Load2 charges two independent loads in one call. It is exactly
// Load(a1); Load(a2) — same tallies, same bank charges, and the same
// recorded trace (recordOp coalesces consecutive same-kind ops) — but
// pays the call and record overhead once. The hot kernel walks charge
// two refs per native step, so halving that overhead is measurable.
func (t *Thread) Load2(a1, a2 uint64) {
	t.overlapRefs += 2
	t.tl.refs += 2
	t.tl.addBank(t.banks.of(a1))
	t.tl.addBank(t.banks.of(a2))
	t.recordOp(OpMemOverlap, 2)
}

// LoadDep2 charges two dependent loads in one call, identically to
// LoadDep(a1); LoadDep(a2).
func (t *Thread) LoadDep2(a1, a2 uint64) {
	t.serialRefs += 2
	t.tl.refs += 2
	t.tl.addBank(t.banks.of(a1))
	t.tl.addBank(t.banks.of(a2))
	t.recordOp(OpMemDep, 2)
}

// LoadN charges n independent loads of the consecutive words addr,
// addr+1, ..., addr+n-1, identically to n Load calls on them.
func (t *Thread) LoadN(addr uint64, n int) {
	t.overlapRefs += float64(n)
	t.tl.refs += int64(n)
	for i := 0; i < n; i++ {
		t.tl.addBank(t.banks.of(addr + uint64(i)))
	}
	t.recordOp(OpMemOverlap, n)
}

// StoreN charges n stores of the consecutive words starting at addr,
// identically to n Store calls on them.
func (t *Thread) StoreN(addr uint64, n int) {
	t.overlapRefs += float64(n)
	t.tl.refs += int64(n)
	for i := 0; i < n; i++ {
		t.tl.addBank(t.banks.of(addr + uint64(i)))
	}
	t.recordOp(OpMemOverlap, n)
}

// FetchAdd charges an int_fetch_add: a one-cycle atomic at the memory
// word, but the issuing thread still pays a round trip for the returned
// value.
func (t *Thread) FetchAdd(addr uint64) {
	t.tl.fetchAdds++
	t.serialRefs++
	t.chargeRef(addr)
	t.recordOp(OpMemDep, 1)
}

// SyncLoad charges a synchronized (full/empty bit) load: readff/readfe.
// Contended words serialize; the machine models the hotspot at region
// granularity.
func (t *Thread) SyncLoad(addr uint64) {
	t.syncOps++
	t.tl.syncOps++
	t.serialRefs++
	t.chargeRef(addr)
	t.tl.hot.add(addr, 1)
}

// SyncStore charges a synchronized store: writeef.
func (t *Thread) SyncStore(addr uint64) {
	t.syncOps++
	t.tl.syncOps++
	t.overlapRefs++
	t.chargeRef(addr)
	t.tl.hot.add(addr, 1)
}

// item converts the tally to a schedulable item. Every memory reference
// also consumes an issue slot; dependent references serialize for the
// full latency while independent ones overlap up to the lookahead depth.
func (t *Thread) item(cfg *Config) sim.Item {
	issue := t.instr + t.serialRefs + t.overlapRefs
	crit := t.instr +
		float64(t.serialRefs*cfg.MemLatency) +
		t.overlapRefs*cfg.MemLatency/float64(cfg.Lookahead)
	if crit < issue {
		crit = issue
	}
	return sim.Item{Issue: issue, Crit: crit}
}

func (t *Thread) reset() {
	t.instr, t.serialRefs, t.overlapRefs, t.syncOps = 0, 0, 0, 0
}

// beginRegion clears per-region accounting.
func (m *Machine) beginRegion() {
	m.region.reset()
}

// grabCounter charges one int_fetch_add on the shared loop counter. The
// counter word is served by the MTA's one-cycle atomic at the memory
// module, so grabs serialize at one per cycle but do not occupy a data
// bank.
func (t *Thread) grabCounter() {
	t.tl.fetchAdds++
	t.tl.ctrGrabs++
	t.serialRefs++
	t.tl.refs++
	t.recordOp(OpMemDep, 1)
}

// replaySpan runs iterations [lo, hi) on thread t in ascending order,
// returning the span's issue/crit sums and max critical path. When exact,
// each iteration's item is stored at its index in m.items; when traces is
// non-nil, each iteration records into its own slot. Both are disjoint
// per iteration, so spans may replay concurrently.
func (m *Machine) replaySpan(t *Thread, lo, hi int, sched sim.Sched, body func(i int, t *Thread), traces []TraceItem, exact bool) (issue, crit, maxCrit float64) {
	cfg := &m.cfg
	// A stream grabs DynChunk iterations per int_fetch_add, as the MTA
	// compiler's chunked dynamic schedule does: iteration i grabs when
	// i%DynChunk == 0, which toGrab counts down to.
	dynamic := sched == sim.SchedDynamic
	toGrab := 0
	if r := lo % cfg.DynChunk; r != 0 {
		toGrab = cfg.DynChunk - r
	}
	t.rec = nil
	for i := lo; i < hi; i++ {
		t.reset()
		if traces != nil {
			t.rec = &traces[i]
		}
		if dynamic {
			if toGrab == 0 {
				t.grabCounter()
				toGrab = cfg.DynChunk
			}
			toGrab--
		}
		body(i, t)
		it := t.item(cfg)
		issue += it.Issue
		crit += it.Crit
		if it.Crit > maxCrit {
			maxCrit = it.Crit
		}
		if exact {
			m.items[i] = it
		}
	}
	return issue, crit, maxCrit
}

// regionReplay is what the workers replaying a region read: its
// iterations, their body and where their results go.
type regionReplay struct {
	n      int
	sched  sim.Sched
	body   func(i int, t *Thread)
	traces []TraceItem    // per-iteration trace slots while recording, else nil
	parts  []chunkPartial // per-chunk sums on the aggregate path, nil on the exact one
	next   atomic.Int64   // index of the next chunk to claim
}

// replayChunks is the one replay loop: it claims the region's chunks in
// index order and replays each on a thread charging tl, until none is
// left. A sharded region's workers each run it on a tally of their own;
// one worker runs it inline on the region's. Items, trace slots and
// chunk sums are written per iteration or per chunk, so workers never
// share a write.
func (m *Machine) replayChunks(tl *tally) {
	r := &m.replay
	t := m.newThread(tl)
	for {
		ci := int(r.next.Add(1)) - 1
		lo := ci * shardChunk
		if lo >= r.n {
			return
		}
		is, cr, mx := m.replaySpan(&t, lo, min(lo+shardChunk, r.n), r.sched, r.body, r.traces, r.parts == nil)
		if r.parts != nil {
			r.parts[ci] = chunkPartial{issue: is, crit: cr, max: mx}
		}
	}
}

// workerTallies returns w pooled tallies, growing the pool on demand.
func (m *Machine) workerTallies(w int) []*tally {
	for len(m.wtallies) < w {
		m.wtallies = append(m.wtallies, newTally(int(m.banks.n)))
	}
	return m.wtallies[:w]
}

// ParallelFor executes body for each iteration in [0, n), charging each
// iteration's demand to a fresh simulated thread, then advances the
// machine clock by the region's simulated wall time. With SchedDynamic
// each iteration also pays the int_fetch_add that fetches its index from
// the shared loop counter, as the paper's codes do.
//
// With SetHostWorkers(w > 1) a region of at least shardMinN iterations
// is sharded across w host goroutines, so body may be called
// concurrently for distinct i and must be data-parallel: writes for
// different iterations must not overlap, and data read by one iteration
// must not be written by another in the same region. Loops that violate
// this must use ParallelForOrdered. Simulated results are identical
// either way. On a machine with no sink, a sharded region on the exact
// path is scheduled in the background while the next region replays
// (see timeLater), and then ParallelFor returns a zero result; Stats and
// Cycles wait for it.
func (m *Machine) ParallelFor(n int, sched sim.Sched, body func(i int, t *Thread)) sim.RegionResult {
	return m.parallelFor(n, sched, body, false)
}

// ParallelForOrdered is ParallelFor for loops whose iterations
// communicate through shared data (the Shiloach–Vishkin grafts and
// pointer-jumping shortcuts, the tree rakes). It always replays serially
// in iteration order regardless of SetHostWorkers — the serial replay
// order is this model's canonical arbitration of the simulated races —
// and charges exactly as ParallelFor does.
func (m *Machine) ParallelForOrdered(n int, sched sim.Sched, body func(i int, t *Thread)) sim.RegionResult {
	return m.parallelFor(n, sched, body, true)
}

func (m *Machine) parallelFor(n int, sched sim.Sched, body func(i int, t *Thread), ordered bool) sim.RegionResult {
	if n < 0 {
		panic("mta: negative iteration count")
	}
	m.beginRegion()
	ch := charges{kind: regionParallel, n: n, sched: sched}
	if n == 0 {
		return m.charge(&ch, false)
	}
	exact := n <= m.maxExact
	if exact {
		if cap(m.items) < n {
			m.items = make([]sim.Item, n)
		}
		m.items = m.items[:n]
	}
	recording := m.recordMax > 0 && n <= m.recordMax
	var itemTraces []TraceItem
	if recording {
		itemTraces = make([]TraceItem, n)
	}

	nchunks := (n + shardChunk - 1) / shardChunk
	w := 1
	if !ordered && n >= shardMinN {
		w = min(m.host.Workers(), nchunks)
	}
	r := &m.replay
	r.n, r.sched, r.body, r.traces, r.parts = n, sched, body, itemTraces, nil
	if !exact {
		if cap(m.chunkParts) < nchunks {
			m.chunkParts = make([]chunkPartial, nchunks)
		}
		r.parts = m.chunkParts[:nchunks]
	}
	r.next.Store(0)
	if w == 1 {
		m.replayChunks(m.region)
	} else {
		tallies := m.workerTallies(w)
		m.host.Run(w, func(worker int) {
			tl := tallies[worker]
			tl.reset()
			m.replayChunks(tl)
		})
		// Worker tallies hold pure counts, so merging them is
		// order-independent.
		for _, tl := range tallies {
			m.region.merge(tl)
		}
	}
	// The machine outlives the kernel's data.
	r.body, r.traces = nil, nil
	m.tallyCharges(&ch)
	if exact {
		ch.items = m.items
	} else {
		// Chunk partials are summed in chunk-index order, which no worker
		// assignment can perturb. The exact path needs no sums: the
		// timing step consumes the items themselves.
		for _, p := range r.parts {
			ch.issue += p.issue
			ch.crit += p.crit
			if p.max > ch.maxCrit {
				ch.maxCrit = p.max
			}
		}
	}
	// A sharded exact region's schedule can overlap the next region's
	// replay, unless its result is needed now: to record the region, or
	// for a sink, whose reader sees its events without asking the machine.
	later := exact && w > 1 && !recording && m.sink == nil
	res := m.charge(&ch, later)
	if recording {
		m.recorded = append(m.recorded, RecordedRegion{Items: itemTraces, Cycles: res.Cycles, Issued: res.Issued})
	}
	return res
}

// Serial executes body as a single simulated thread — a section with no
// parallelism, such as a scalar reduction the compiler could not
// parallelize. The machine advances by the thread's critical path.
func (m *Machine) Serial(body func(t *Thread)) {
	m.beginRegion()
	t := m.newThread(m.region)
	body(&t)
	it := t.item(&m.cfg)
	ch := charges{kind: regionSerial, issue: it.Issue, crit: it.Crit}
	m.tallyCharges(&ch)
	m.charge(&ch, false)
}

// Barrier charges a full-machine barrier.
func (m *Machine) Barrier() {
	m.charge(&charges{kind: regionBarrier}, false)
}
