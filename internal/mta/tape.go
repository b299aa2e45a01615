package mta

// Tapes: a kernel run's charges recorded once and timed on any machine
// of the same charge class. A sweep that runs one kernel on one input at
// several processor or stream counts records the run on the first
// machine and plays the tape on the others, skipping the native kernel
// execution and the charge replay, which is the whole of a run's cost
// apart from the region scheduler.

import (
	"fmt"
	"math"
	"slices"

	"pargraph/internal/sim"
)

// ChargeClass is the part of a Config that a kernel run's charges depend
// on: the per-iteration items (MemLatency, Lookahead), the loop-counter
// grabs (DynChunk), and the bank buckets references land in (HashMemory,
// and Buckets, the bucket count bankBuckets derives from Banks). The rest
// of a Config — Procs, StreamsPerProc, UseStreams, ClockMHz, BankCycle,
// HotspotCycle, BarrierCycles and Banks within the class — only times
// the charges.
type ChargeClass struct {
	MemLatency float64
	Lookahead  int
	DynChunk   int
	HashMemory bool
	Buckets    int
}

// ChargeClass returns the configuration's charge class.
func (c Config) ChargeClass() ChargeClass {
	return ChargeClass{
		MemLatency: c.MemLatency,
		Lookahead:  c.Lookahead,
		DynChunk:   c.DynChunk,
		HashMemory: c.HashMemory,
		Buckets:    bankBuckets(c.Banks),
	}
}

// Tape is the charge record of one kernel run: every region's charges,
// barriers included, in program order. A tape is immutable once
// RecordTape returns, so any number of machines may Play it
// concurrently.
type Tape struct {
	class   ChargeClass
	regions []tapeRegion
}

// tapeRegion is one recorded region. An exact region's items are stored
// as codes into dict, its distinct items: one byte per item when it has
// at most 256 distinct items, two bytes up to 65,536, and raw above that.
type tapeRegion struct {
	ch      charges // ch.items is nil; the bank slices are the tape's own
	dict    []sim.Item
	codes8  []uint8
	codes16 []uint16
	raw     []sim.Item
}

// RecordTape runs kernel on the machine while recording every region's
// charges, and returns them as a tape along with kernel's error. The run
// is timed as usual, so the recording machine's Stats and events are a
// live run's.
func (m *Machine) RecordTape(kernel func(*Machine) error) (*Tape, error) {
	t := &Tape{class: m.cfg.ChargeClass()}
	m.tape = t
	defer func() { m.tape = nil }()
	err := kernel(m)
	return t, err
}

// Play times a recorded tape on the machine, region by region, exactly
// as a live run of the recorded kernel would time on it: the same Stats
// bits and, with a sink attached, the same attribution events at the
// machine's sampling. Play runs no kernel code, so it produces none of
// the kernel's outputs and no RecordRegions op traces. It refuses a tape
// recorded under another charge class.
func (m *Machine) Play(t *Tape) error {
	if c := m.cfg.ChargeClass(); c != t.class {
		return fmt.Errorf("mta: a tape recorded under charge class %+v cannot play on a machine of class %+v", t.class, c)
	}
	for i := range t.regions {
		r := &t.regions[i]
		ch := r.ch
		if r.dict != nil || r.raw != nil {
			ch.items = r.decode(&m.items)
		}
		m.time(&ch)
	}
	return nil
}

// add appends a copy of one region's charges to the tape, coding an
// exact region's items through d.
func (t *Tape) add(ch *charges, d *itemDict) {
	r := tapeRegion{ch: *ch}
	r.ch.items = nil
	r.ch.bankIdx = slices.Clone(ch.bankIdx)
	r.ch.bankCnt = slices.Clone(ch.bankCnt)
	if ch.items != nil {
		if codes, ok := d.encode(ch.items); !ok {
			r.raw = slices.Clone(ch.items)
		} else if r.dict = slices.Clone(d.items); len(r.dict) <= 1<<8 {
			r.codes8 = make([]uint8, len(codes))
			for i, c := range codes {
				r.codes8[i] = uint8(c)
			}
		} else {
			r.codes16 = slices.Clone(codes)
		}
	}
	t.regions = append(t.regions, r)
}

// decode returns the region's items, expanding codes into *buf (grown as
// needed); raw items are returned as stored, since the region scheduler
// only reads them.
func (r *tapeRegion) decode(buf *[]sim.Item) []sim.Item {
	if r.raw != nil {
		return r.raw
	}
	n := r.ch.n
	if cap(*buf) < n {
		*buf = make([]sim.Item, n)
	}
	dst := (*buf)[:n]
	if r.codes8 != nil {
		for i, c := range r.codes8 {
			dst[i] = r.dict[c]
		}
	} else {
		for i, c := range r.codes16 {
			dst[i] = r.dict[c]
		}
	}
	return dst
}

// maxDictItems is the most distinct items a coded region may hold.
const maxDictItems = 1 << 16

// itemDict assigns dense codes to a region's distinct items, compared by
// their bits, through an open-addressing table. A recording machine keeps
// one and reuses its storage region to region.
type itemDict struct {
	items []sim.Item // distinct items, by code
	slots []int32    // code+1 per table slot, 0 when empty
	used  []int32    // occupied slots, so reset clears only those
	codes []uint16   // the last encode's codes
}

// encode codes items, or reports false when they hold more than
// maxDictItems distinct items. The codes are valid until the next call.
func (d *itemDict) encode(items []sim.Item) ([]uint16, bool) {
	d.reset()
	if cap(d.codes) < len(items) {
		d.codes = make([]uint16, len(items))
	}
	codes := d.codes[:len(items)]
	last, lastCode := sim.Item{}, -1
	for i, it := range items {
		// Neighbouring iterations often cost the same (a walk's length
		// repeats, a uniform loop repeats throughout), so check the last
		// item before hashing.
		if lastCode < 0 || !sameItem(it, last) {
			if lastCode = d.code(it); lastCode < 0 {
				return nil, false
			}
			last = it
		}
		codes[i] = uint16(lastCode)
	}
	return codes, true
}

func sameItem(a, b sim.Item) bool {
	return math.Float64bits(a.Issue) == math.Float64bits(b.Issue) &&
		math.Float64bits(a.Crit) == math.Float64bits(b.Crit)
}

// code returns the item's code, adding it to the dictionary if it is
// new, or -1 when the dictionary is full.
func (d *itemDict) code(it sim.Item) int {
	if len(d.slots) == 0 {
		d.slots = make([]int32, 1024)
	}
	mask := uint64(len(d.slots) - 1)
	for h := hashItem(it) & mask; ; h = (h + 1) & mask {
		s := d.slots[h]
		if s == 0 {
			if len(d.items) == maxDictItems {
				return -1
			}
			d.items = append(d.items, it)
			d.slots[h] = int32(len(d.items))
			d.used = append(d.used, int32(h))
			if 2*len(d.items) > len(d.slots) {
				d.grow()
			}
			return len(d.items) - 1
		}
		if sameItem(d.items[s-1], it) {
			return int(s - 1)
		}
	}
}

// grow doubles the table and reinserts every item.
func (d *itemDict) grow() {
	d.slots = make([]int32, 2*len(d.slots))
	d.used = d.used[:0]
	mask := uint64(len(d.slots) - 1)
	for i, it := range d.items {
		h := hashItem(it) & mask
		for d.slots[h] != 0 {
			h = (h + 1) & mask
		}
		d.slots[h] = int32(i + 1)
		d.used = append(d.used, int32(h))
	}
}

func (d *itemDict) reset() {
	for _, h := range d.used {
		d.slots[h] = 0
	}
	d.used = d.used[:0]
	d.items = d.items[:0]
}

func hashItem(it sim.Item) uint64 {
	h := math.Float64bits(it.Issue)*0x9e3779b97f4a7c15 ^ math.Float64bits(it.Crit)*0xc2b2ae3d27d4eb4f
	return h ^ h>>29
}
