package mta

// This file contains an exact, cycle-by-cycle barrel-processor
// simulator. It is not used on the experiment path — the
// processor-sharing model in internal/sim is orders of magnitude
// faster — but exists to validate that model: the tests replay the same
// workloads through both engines and assert agreement. This is the
// repository's answer to "why believe the fluid approximation?".

// OpKind classifies one operation of a thread trace.
type OpKind uint8

const (
	// OpCompute is a non-memory instruction: one issue slot, ready next
	// cycle.
	OpCompute OpKind = iota
	// OpMemDep is a dependent memory reference (pointer chase): one
	// issue slot, then the stream blocks for the full memory latency.
	OpMemDep
	// OpMemOverlap is an independent memory reference: one issue slot;
	// the stream keeps issuing while at most Lookahead such references
	// are outstanding.
	OpMemOverlap
)

// Op is one step of a thread trace: Kind repeated N times.
type Op struct {
	Kind OpKind
	N    int
}

// TraceItem is the operation sequence of one loop iteration.
type TraceItem []Op

// CycleResult reports an exact barrel simulation.
type CycleResult struct {
	Cycles float64
	Issued float64
}

// Utilization returns issued slots per cycle.
func (r CycleResult) Utilization() float64 {
	if r.Cycles <= 0 {
		return 0
	}
	return r.Issued / r.Cycles
}

// streamState is one hardware stream mid-execution.
type streamState struct {
	item        int   // index into items, -1 if idle
	op          int   // current op within the item
	rep         int   // repetitions of the current op already issued
	readyAt     int64 // cycle at which the stream may issue again
	outstanding []int64
}

// CycleSim executes items on one barrel processor with the given number
// of hardware streams, exactly: every cycle the processor issues at most
// one instruction from the ready streams in round-robin order. Items are
// handed to streams dynamically (the int_fetch_add discipline; grab cost
// is not charged, matching a DynChunk→∞ configuration of the fast
// model). memLatency is the mean cycles a reference takes; lookahead
// bounds a stream's outstanding overlappable references. The region ends
// when every stream has finished issuing and every reference has
// retired.
//
// jitter ∈ [0,1) disperses each reference's latency uniformly in
// memLatency·(1±jitter), deterministically. A hashed, network-attached
// memory system has exactly this kind of dispersion; with jitter = 0
// streams fall into lockstep convoys that no real machine exhibits, so
// the validation tests run both settings.
func CycleSim(items []TraceItem, streams int, memLatency int64, lookahead int, jitter float64) CycleResult {
	if streams <= 0 {
		panic("mta: CycleSim needs at least one stream")
	}
	if jitter < 0 || jitter >= 1 {
		panic("mta: jitter must be in [0,1)")
	}
	rngState := uint64(0x9e3779b97f4a7c15)
	lat := func() int64 {
		if jitter == 0 {
			return memLatency
		}
		rngState ^= rngState << 13
		rngState ^= rngState >> 7
		rngState ^= rngState << 17
		u := float64(rngState>>11) / (1 << 53) // [0,1)
		return int64(float64(memLatency) * (1 - jitter + float64(2*jitter*u)))
	}
	ss := make([]streamState, streams)
	next := 0
	active := 0
	for i := range ss {
		ss[i].item = -1
		if next < len(items) {
			ss[i].item = next
			next++
			active++
		}
	}
	if active == 0 {
		return CycleResult{}
	}

	var clock, issued, lastRetire int64
	rr := 0
	for active > 0 {
		issuedThis := false
		// Round-robin scan for a ready stream with work.
		for k := 0; k < streams; k++ {
			s := &ss[(rr+k)%streams]
			if s.item < 0 || s.readyAt > clock {
				continue
			}
			// Skip finished items, pull new work.
			for s.op < len(items[s.item]) && items[s.item][s.op].N == 0 {
				s.op++
			}
			if s.op >= len(items[s.item]) {
				// Item complete; but outstanding refs may remain — they
				// do not gate completion (stores/loads already issued).
				if next < len(items) {
					// Pull the next item; outstanding refs persist — the
					// lookahead limit is a property of the stream, not
					// the item.
					s.item = next
					next++
					s.op, s.rep = 0, 0
					continue // re-examined on the next scan
				}
				s.item = -1
				active--
				continue
			}
			op := items[s.item][s.op]
			// Issue one repetition of op.
			switch op.Kind {
			case OpCompute:
				// ready next cycle
				s.readyAt = clock + 1
			case OpMemDep:
				retire := clock + 1 + lat()
				s.readyAt = retire
				if retire > lastRetire {
					lastRetire = retire
				}
			case OpMemOverlap:
				// Retire completed refs.
				live := s.outstanding[:0]
				for _, c := range s.outstanding {
					if c > clock {
						live = append(live, c)
					}
				}
				s.outstanding = live
				if len(s.outstanding) >= lookahead {
					// At the limit: block until the earliest retires,
					// without issuing this cycle.
					min := s.outstanding[0]
					for _, c := range s.outstanding[1:] {
						if c < min {
							min = c
						}
					}
					s.readyAt = min
					continue
				}
				retire := clock + 1 + lat()
				s.outstanding = append(s.outstanding, retire)
				if retire > lastRetire {
					lastRetire = retire
				}
				s.readyAt = clock + 1
			}
			s.rep++
			if s.rep >= op.N {
				s.op++
				s.rep = 0
			}
			issued++
			issuedThis = true
			rr = ((rr+k)%streams + 1) % streams
			break
		}
		if !issuedThis {
			// Fast-forward to the next time any stream becomes ready.
			var minReady int64 = 1<<62 - 1
			for i := range ss {
				if ss[i].item >= 0 && ss[i].readyAt > clock && ss[i].readyAt < minReady {
					minReady = ss[i].readyAt
				}
			}
			if minReady >= 1<<62-1 {
				clock++ // all idle streams churn through item pulls
			} else {
				clock = minReady
			}
			continue
		}
		clock++
	}
	if lastRetire > clock {
		clock = lastRetire // a region's barrier waits for retirement
	}
	return CycleResult{Cycles: float64(clock), Issued: float64(issued)}
}
