// Package smp models a bus-based symmetric multiprocessor of the Sun
// Enterprise E4500 class the paper measured: per-processor direct-mapped
// L1 and external L2 caches, a shared uniform-memory-access bus with
// finite bandwidth, and software barriers.
//
// Like internal/mta, the model is a fused trace-driven simulation.
// Kernels execute natively, phase by phase; within a phase each simulated
// processor runs its partition of the work against its own cache state
// and tallies cycles, and the machine then charges the phase with the
// slowest processor's time, stretched if the aggregate memory traffic
// exceeds the bus bandwidth. Cache state persists across phases.
//
// This captures the three properties the paper attributes to SMPs:
// performance is dominated by locality (hit rates), memory bandwidth is a
// shared and limited resource, and synchronization is a software
// construct with real cost.
//
// Coherence is approximated: the kernels reproduced here partition their
// writes between processors within a phase (the Helman–JáJá and
// Shiloach–Vishkin codes are phase-parallel), so the model does not
// simulate per-line invalidations; stores still pay allocation traffic
// on the bus.
package smp

import (
	"fmt"
	"math"

	"pargraph/internal/par"
	"pargraph/internal/trace"
)

// Config describes an SMP machine instance.
type Config struct {
	Procs     int
	ClockMHz  float64 // processor clock (E4500: 400)
	L1Bytes   int     // on-chip data cache (US-II: 16 KB direct mapped)
	L1Line    int     // L1 line size in bytes (US-II: 32)
	L1Assoc   int     // L1 associativity (US-II: 1, direct mapped)
	L2Bytes   int     // external cache (E4500: 4 MB)
	L2Line    int     // L2 line size in bytes (64)
	L2Assoc   int     // L2 associativity (E4500: 1, direct mapped)
	L1HitCy   float64 // L1 hit latency in cycles
	L2HitCy   float64 // L1-miss/L2-hit latency in cycles
	MemCy     float64 // L2-miss latency to main memory in cycles
	BusBPC    float64 // shared bus bandwidth in bytes per cycle
	BarrierCy float64 // base software barrier cost in cycles
	BarrierPP float64 // additional barrier cost per processor
	PhaseCy   float64 // per-phase parallel dispatch overhead
}

// DefaultConfig returns E4500-like parameters for procs processors: a
// 400 MHz UltraSPARC II with 16 KB direct-mapped L1 (32-byte lines),
// 4 MB L2 (64-byte lines), ~300-cycle memory, and a bus that sustains on
// the order of 1.3 GB/s.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:     procs,
		ClockMHz:  400,
		L1Bytes:   16 << 10,
		L1Line:    32,
		L1Assoc:   1,
		L2Bytes:   4 << 20,
		L2Line:    64,
		L2Assoc:   1,
		L1HitCy:   1,
		L2HitCy:   25,
		MemCy:     300,
		BusBPC:    3.2, // ~1.3 GB/s at 400 MHz
		BarrierCy: 2000,
		BarrierPP: 400,
		PhaseCy:   1000,
	}
}

func (c Config) validate() error {
	switch {
	case c.Procs <= 0:
		return fmt.Errorf("smp: Procs must be positive, got %d", c.Procs)
	case c.ClockMHz <= 0:
		return fmt.Errorf("smp: ClockMHz must be positive")
	case c.L1Bytes <= 0 || c.L2Bytes <= 0:
		return fmt.Errorf("smp: cache sizes must be positive")
	case c.L1Line <= 0 || c.L2Line <= 0:
		return fmt.Errorf("smp: line sizes must be positive")
	case c.L1Bytes%c.L1Line != 0 || c.L2Bytes%c.L2Line != 0:
		return fmt.Errorf("smp: cache size must be a multiple of its line size")
	case c.L1Assoc < 1 || c.L2Assoc < 1:
		return fmt.Errorf("smp: associativity must be at least 1")
	case c.L1Bytes%(c.L1Line*c.L1Assoc) != 0 || c.L2Bytes%(c.L2Line*c.L2Assoc) != 0:
		return fmt.Errorf("smp: cache size must divide into assoc-wide sets")
	case c.BusBPC <= 0:
		return fmt.Errorf("smp: BusBPC must be positive")
	case c.MemCy < c.L2HitCy || c.L2HitCy < c.L1HitCy:
		return fmt.Errorf("smp: latencies must increase down the hierarchy")
	case !whole(c.L1HitCy) || !whole(c.L2HitCy) || !whole(c.MemCy):
		return fmt.Errorf("smp: latencies must be whole numbers of cycles")
	}
	return nil
}

// whole reports whether x is a finite whole number. Whole-number
// latencies let a processor's busy cycles be folded from its integer
// counters at phase end: sums of whole numbers below 2^53 are exact in
// float64, so the fold equals the per-reference running sum bit for bit.
func whole(x float64) bool {
	return x == math.Trunc(x) && !math.IsInf(x, 0)
}

// Stats accumulates machine activity over a run.
type Stats struct {
	Cycles   float64 // total simulated wall cycles
	L1Hits   int64
	L2Hits   int64
	Misses   int64 // references served by main memory
	Loads    int64
	Stores   int64
	Computes int64   // ALU cycles charged
	BusBytes float64 // bytes moved over the shared bus
	BusStall float64 // cycles phases were stretched by bus saturation
	Phases   int
	Barriers int
}

// cache is one set-associative tag array with LRU replacement. assoc = 1
// degenerates to a direct-mapped cache (the E4500 configuration); the
// associativity ablation (A6) raises it.
type cache struct {
	tags  []uint64 // assoc tags per set, LRU-ordered (index 0 = MRU);
	sets  uint64   // 0 means empty (stored tags are shifted+1)
	mask  uint64   // sets-1 when sets is a power of two, else 0
	assoc int
	shift uint // log2(line size)
	// direct marks a direct-mapped cache with a power-of-two set count
	// (every E4500 geometry): Proc.ref looks those up inline.
	direct bool
}

func newCache(bytes, line, assoc int) cache {
	sets := bytes / line / assoc
	sh := uint(0)
	for 1<<sh < line {
		sh++
	}
	c := cache{tags: make([]uint64, sets*assoc), sets: uint64(sets), assoc: assoc, shift: sh}
	if s := uint64(sets); s&(s-1) == 0 {
		c.mask = s - 1
		c.direct = assoc == 1
	}
	return c
}

// setOf maps a line address to its set index. Power-of-two set counts —
// every realistic geometry, including the E4500 defaults — use a mask
// instead of a 64-bit modulo; the two are value-identical there.
func (c *cache) setOf(lineAddr uint64) int {
	if c.mask != 0 {
		return int(lineAddr & c.mask)
	}
	return int(lineAddr % c.sets)
}

// access looks up addr and installs it on miss; it reports a hit. The
// hit way is promoted to MRU; a miss evicts the LRU way. A direct-mapped
// cache has one way per set, so hit, miss, and replacement collapse to a
// single tag compare and store with no MRU reshuffling.
func (c *cache) access(addr uint64) bool {
	lineAddr := addr >> c.shift
	tag := lineAddr + 1 // +1 so an empty slot (0) never matches
	if c.assoc == 1 {
		set := c.setOf(lineAddr)
		if c.tags[set] == tag {
			return true
		}
		c.tags[set] = tag
		return false
	}
	set := c.setOf(lineAddr) * c.assoc
	ways := c.tags[set : set+c.assoc]
	for i, w := range ways {
		if w == tag {
			// Promote to MRU.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return true
		}
	}
	copy(ways[1:], ways[:c.assoc-1]) // evict LRU (last way)
	ways[0] = tag
	return false
}

func (c *cache) invalidateAll() {
	for i := range c.tags {
		c.tags[i] = 0
	}
}

// Proc is one simulated processor's execution context within a phase.
// Kernels call its methods as they execute their partition of the work.
//
// A reference only counts which level served it. The phase's busy cycles
// and bus bytes are folded from the counters when the phase ends (busy,
// bus): with whole-number latencies (Config.validate) that fold is
// exactly the running float sum a per-reference accumulation would keep.
type Proc struct {
	id  int
	cfg *Config
	l1  cache
	l2  cache

	l1Hits   int64
	l2Hits   int64
	misses   int64
	loads    int64
	stores   int64
	computes int64
}

// ID returns the processor's index within the machine, 0..Procs-1.
func (p *Proc) ID() int { return p.id }

// ref serves one reference through the hierarchy. The direct-mapped,
// power-of-two lookup is written out inline; other geometries go through
// cache.access.
func (p *Proc) ref(addr uint64) {
	if c := &p.l1; c.direct {
		line := addr >> c.shift
		if set := line & c.mask; c.tags[set] != line+1 {
			c.tags[set] = line + 1
		} else {
			p.l1Hits++
			return
		}
	} else if c.access(addr) {
		p.l1Hits++
		return
	}
	if c := &p.l2; c.direct {
		line := addr >> c.shift
		if set := line & c.mask; c.tags[set] != line+1 {
			c.tags[set] = line + 1
		} else {
			p.l2Hits++
			return
		}
	} else if c.access(addr) {
		p.l2Hits++
		return
	}
	p.misses++
}

// busy returns the processor's cycles since its counters were cleared:
// compute plus each reference's service latency.
func (p *Proc) busy() float64 {
	return float64(p.computes) + float64(float64(p.l1Hits)*p.cfg.L1HitCy) +
		float64(float64(p.l2Hits)*p.cfg.L2HitCy) + float64(float64(p.misses)*p.cfg.MemCy)
}

// bus returns the bytes the processor moved over the bus since its
// counters were cleared: an L1 line per L2 hit, an L2 line per miss.
func (p *Proc) bus() float64 {
	return float64(float64(p.l2Hits)*float64(p.cfg.L1Line)) + float64(float64(p.misses)*float64(p.cfg.L2Line))
}

// drain folds the processor's counters into stats and clears them.
func (p *Proc) drain(stats *Stats) {
	stats.L1Hits += p.l1Hits
	stats.L2Hits += p.l2Hits
	stats.Misses += p.misses
	stats.Loads += p.loads
	stats.Stores += p.stores
	stats.Computes += p.computes
	p.clear()
}

func (p *Proc) clear() {
	p.l1Hits, p.l2Hits, p.misses, p.loads, p.stores, p.computes = 0, 0, 0, 0, 0, 0
}

// Load charges a read of the word at addr through the cache hierarchy.
func (p *Proc) Load(addr uint64) {
	p.loads++
	p.ref(addr)
}

// Store charges a write-allocate write of the word at addr.
func (p *Proc) Store(addr uint64) {
	p.stores++
	p.ref(addr)
}

// Compute charges n ALU cycles.
func (p *Proc) Compute(n int) {
	p.computes += int64(n)
}

// Machine is a simulated SMP. Like the MTA model it is deterministic and
// not safe for concurrent use by multiple kernels; with
// SetHostWorkers(w > 1) the simulated processors of a Phase replay
// concurrently on host goroutines, each against its own private caches.
type Machine struct {
	cfg   Config
	stats Stats
	procs []*Proc
	// host is the host worker count and its parked helpers, kept across
	// Reset.
	host *par.Pool
	// busyArena amortizes the per-phase procBusy allocations made while a
	// sink is attached. Emitted trace events retain their slices, so the
	// arena only batches the allocations — carved chunks are never reused.
	busyArena []float64
	next      uint64 // bump allocator for Alloc
	allocs    int    // allocation count, drives the anti-conflict stagger

	// Attribution-event sink (internal/trace); nil means tracing is off
	// and phases pay only a nil check. evSeq numbers emitted events.
	sink  trace.Sink
	evSeq int
}

// New constructs a machine. It panics on an invalid configuration.
func New(cfg Config) *Machine {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg, host: par.NewPool(1), next: 1 << 20}
	m.procs = make([]*Proc, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = &Proc{
			id:  i,
			cfg: &m.cfg,
			l1:  newCache(cfg.L1Bytes, cfg.L1Line, cfg.L1Assoc),
			l2:  newCache(cfg.L2Bytes, cfg.L2Line, cfg.L2Assoc),
		}
	}
	return m
}

// SetHostWorkers sets how many host goroutines replay the simulated
// processors of a Phase on a machine of at least shardMinProcs
// processors: w < 1 means 1, the default. Any count yields identical
// simulated results because each simulated processor owns its cache
// state and the bus/barrier merge stays serial in processor order. The
// count is capped at runtime.GOMAXPROCS(0) (see par.Pool.Workers).
func (m *Machine) SetHostWorkers(w int) { m.host.SetWorkers(w) }

// shardMinProcs is the one serial rule: a machine simulating fewer
// processors replays every phase on the calling goroutine whatever the
// worker count. Sharding two processors loses on short lists and wins
// on long ones; the losses are a tenth of a millisecond, the wins tens.
// RankSMP with 8p sublists on a Random list, 2-vCPU VM (GOMAXPROCS 2,
// go1.24.0), medians of five to nine alternating runs, ms at workers 1
// against workers 2: at p = 2, 0.39 against 0.41 at 4,096 nodes, 1.43
// against 1.59 at 2^14, 28.6 against 31.9 at 2^18, and 120.5–133.2
// against 73.4–118.5 at 2^20 and 223.7–270.1 against 145.0–175.8 at
// 2^21 over three series; at p = 4, 0.35 against 0.44 at 4,096 nodes
// and 29.6 against 18.2 at 2^18.
const shardMinProcs = 2

// HostWorkers returns how many host goroutines the machine replays on:
// the SetHostWorkers count, capped at GOMAXPROCS. Kernels shard their
// own host-side work, such as the list kernels' walk, over it too.
func (m *Machine) HostWorkers() int { return m.host.Workers() }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns a copy of the accumulated statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Cycles returns total simulated cycles so far.
func (m *Machine) Cycles() float64 { return m.stats.Cycles }

// Seconds converts the simulated cycle count to seconds.
func (m *Machine) Seconds() float64 { return m.stats.Cycles / (m.cfg.ClockMHz * 1e6) }

// Reset returns the machine to its post-New state, keeping the
// configuration: statistics, trace event numbering, cache contents, and
// the simulated allocator (bump pointer and anti-conflict stagger
// counter) all reset, so a pooled machine replays a kernel
// bit-identically to a fresh one.
func (m *Machine) Reset() {
	m.stats = Stats{}
	m.evSeq = 0
	m.next = 1 << 20
	m.allocs = 0
	for _, p := range m.procs {
		p.clear()
		p.l1.invalidateAll()
		p.l2.invalidateAll()
	}
}

// Alloc reserves bytes of simulated address space, aligned to the L2
// line, and returns the base address. Consecutive allocations are
// staggered by a varying number of lines so that equal-sized arrays
// indexed in lockstep do not land on identical direct-mapped sets — the
// padding any tuned HPC code (or a page-coloring allocator) provides.
func (m *Machine) Alloc(bytes int) uint64 {
	if bytes < 0 {
		panic("smp: negative allocation")
	}
	line := uint64(m.cfg.L2Line)
	m.allocs++
	stagger := (uint64(m.allocs) * 37 % 509) * line
	base := (m.next+line-1)/line*line + stagger
	m.next = base + uint64(bytes)
	return base
}

// Phase runs body once per processor, each against its own caches, then
// advances the machine clock by the slowest processor's time — stretched
// to the bus bound if the phase's aggregate traffic exceeds the shared
// bus bandwidth. Kernels partition work inside body using p.ID().
//
// With SetHostWorkers(w > 1) on a machine of at least shardMinProcs
// processors the per-processor bodies run concurrently on host
// goroutines, so body must confine its writes to processor p's
// partition (true of the phase-parallel Helman–JáJá codes). Phases whose
// processors communicate through shared arrays must use PhaseOrdered.
// The counter merge and bus/barrier accounting always run serially in
// processor order, so simulated results are identical for any worker
// count.
func (m *Machine) Phase(body func(p *Proc)) {
	m.phase(body, false)
}

// PhaseOrdered is Phase for bodies whose simulated processors
// communicate through shared data (the Shiloach–Vishkin grafts and
// shortcuts). It always replays the processors serially in index order
// regardless of SetHostWorkers — serial replay order is the model's
// canonical arbitration of the simulated races — and charges exactly as
// Phase does.
func (m *Machine) PhaseOrdered(body func(p *Proc)) {
	m.phase(body, true)
}

func (m *Machine) phase(body func(p *Proc), ordered bool) {
	before := m.stats
	m.stats.Phases++
	for _, p := range m.procs {
		p.clear()
	}
	P := m.cfg.Procs
	w := 1
	if !ordered && P >= shardMinProcs {
		w = min(m.host.Workers(), P)
	}
	m.host.Run(w, func(worker int) {
		// Same blocked partition as par.For; simulated results do not
		// depend on it (each simulated processor owns its caches and the
		// merge below is serial), only load balance does. One worker runs
		// inline and replays the processors in index order.
		for i := worker * P / w; i < (worker+1)*P/w; i++ {
			body(m.procs[i])
		}
	})
	// Merge in processor index order — the same floating-point
	// accumulation order as serial replay.
	maxCycles := 0.0
	var bytes float64
	var procBusy []float64
	if m.sink != nil {
		procBusy = m.busyChunk(len(m.procs))
	}
	for i, p := range m.procs {
		cycles := p.busy()
		if procBusy != nil {
			procBusy[i] = cycles
		}
		if cycles > maxCycles {
			maxCycles = cycles
		}
		bytes += p.bus()
		p.drain(&m.stats)
	}
	phase := maxCycles + m.cfg.PhaseCy
	busStall := 0.0
	if busTime := bytes / m.cfg.BusBPC; busTime > phase {
		busStall = busTime - phase
		m.stats.BusStall += busStall
		phase = busTime
	}
	m.stats.BusBytes += bytes
	start := m.stats.Cycles
	m.stats.Cycles += phase
	if m.sink != nil {
		m.emitPhase(start, phase, maxCycles, busStall, before, procBusy)
	}
}

// busyChunk carves a zeroed n-element slice out of the arena, allocating
// a fresh block when the current one is exhausted. Exhausted blocks stay
// alive exactly as long as the trace events that reference them.
func (m *Machine) busyChunk(n int) []float64 {
	if cap(m.busyArena)-len(m.busyArena) < n {
		blk := 64 * n
		m.busyArena = make([]float64, 0, blk)
	}
	used := len(m.busyArena)
	m.busyArena = m.busyArena[:used+n]
	return m.busyArena[used : used+n : used+n]
}

// Sequential runs body on processor 0 only — a serial section.
func (m *Machine) Sequential(body func(p *Proc)) {
	before := m.stats
	p := m.procs[0]
	p.clear()
	body(p)
	cycles, bytes := p.busy(), p.bus()
	if busTime := bytes / m.cfg.BusBPC; busTime > cycles {
		m.stats.BusStall += busTime - cycles
		cycles = busTime
	}
	m.stats.BusBytes += bytes
	p.drain(&m.stats)
	start := m.stats.Cycles
	m.stats.Cycles += cycles
	if m.sink != nil {
		m.emitSequential(start, cycles, before)
	}
}

// Barrier charges one software barrier: a base cost plus a per-processor
// component, as a pthreads condition-variable barrier costs.
func (m *Machine) Barrier() {
	m.stats.Barriers++
	cy := m.cfg.BarrierCy + float64(m.cfg.BarrierPP*float64(m.cfg.Procs))
	start := m.stats.Cycles
	m.stats.Cycles += cy
	if m.sink != nil {
		m.emitBarrier(start, cy)
	}
}
