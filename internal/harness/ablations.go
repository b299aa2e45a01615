package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/sweep"
)

// AblationRow is one configuration → seconds measurement.
type AblationRow struct {
	Config  string
	Seconds float64
	Extra   string // optional annotation (utilization, iterations, …)
}

// AblationResult is a small named table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// WriteText prints the ablation table.
func (r *AblationResult) WriteText(w io.Writer) {
	fmt.Fprintln(w, r.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tseconds\tnotes")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.6f\t%s\n", row.Config, row.Seconds, row.Extra)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// RunAblScheduling (A1) compares dynamic (int_fetch_add) against static
// block scheduling of the MTA list-ranking walks on a Random list, whose
// walk lengths are skewed — the paper's §3 load-balance argument.
//
// The comparison runs at two granularities. At the paper's fine grain
// (~10 nodes per walk) each stream executes many walks, so even a block
// schedule balances by averaging and the two schedules tie — that
// robustness is part of why the paper picks small walks. At coarse grain
// (about two walks per stream) a block schedule strands long walks on a
// few streams and dynamic scheduling wins clearly.
func (e *Env) RunAblScheduling(n, procs int, seed uint64) (*AblationResult, error) {
	res := &AblationResult{Title: fmt.Sprintf("A1: MTA walk scheduling (random list, n=%d, p=%d)", n, procs)}
	cfg := mta.DefaultConfig(procs)
	streams := cfg.UseStreams * procs
	grains := []struct {
		name  string
		nwalk int
	}{
		{"fine walks (~10 nodes)", n / listrank.DefaultNodesPerWalk},
		{"coarse walks (~2 per stream)", 2 * streams},
	}
	scheds := []struct {
		name string
		s    sim.Sched
	}{{"dynamic (int_fetch_add)", sim.SchedDynamic}, {"static block", sim.SchedBlock}}
	res.Rows = make([]AblationRow, len(grains)*len(scheds))
	_, err := e.runSweep(len(res.Rows), e.stdOpts(), func(idx int, c *Cell) error {
		g, sched := grains[idx/len(scheds)], scheds[idx%len(scheds)]
		lKey := sweep.ListKey(n, list.Random.String(), seed)
		row, err := Memo(c, fmt.Sprintf("abl/sched/p=%d/nwalk=%d/sched=%s/grain=%s", procs, g.nwalk, sched.name, g.name),
			[]string{lKey}, appendAblationRow, consumeAblationRow, func() (AblationRow, error) {
				l := cached(c, lKey, func() *list.List { return list.New(n, list.Random, seed) })
				m := c.MTA(cfg)
				listrank.RankMTA(l, m, g.nwalk, sched.s)
				return AblationRow{
					Config:  g.name + ", " + sched.name,
					Seconds: m.Seconds(),
					Extra:   fmt.Sprintf("utilization %.0f%%", m.Utilization()*100),
				}, nil
			})
		if err != nil {
			return err
		}
		res.Rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblHashing (A2) measures the MTA's logical-to-physical address
// hashing by sweeping memory at a pathological power-of-two stride with
// hashing on and off. With hashing off the stride hammers one memory
// bank; hashing spreads the same references evenly.
func (e *Env) RunAblHashing(refs, procs int) (*AblationResult, error) {
	res := &AblationResult{Title: fmt.Sprintf("A2: MTA address hashing (stride sweep, %d refs, p=%d)", refs, procs)}
	hashedBy := []bool{true, false}
	res.Rows = make([]AblationRow, len(hashedBy))
	_, err := e.runSweep(len(res.Rows), e.stdOpts(), func(idx int, c *Cell) error {
		hashed := hashedBy[idx]
		row, err := Memo(c, fmt.Sprintf("abl/hashing/refs=%d/p=%d/hashed=%t", refs, procs, hashed),
			nil, appendAblationRow, consumeAblationRow, func() (AblationRow, error) {
				cfg := mta.DefaultConfig(procs)
				cfg.HashMemory = hashed
				m := c.MTA(cfg)
				stride := uint64(cfg.Banks) // worst case: every ref to one bank
				m.ParallelFor(refs/8, sim.SchedDynamic, func(i int, t *mta.Thread) {
					for k := 0; k < 8; k++ {
						t.Instr(1)
						t.Load(uint64(i*8+k) * stride)
					}
				})
				name := "hashing off"
				if hashed {
					name = "hashing on (MTA-2 behaviour)"
				}
				return AblationRow{
					Config:  name,
					Seconds: m.Seconds(),
					Extra:   fmt.Sprintf("bank-stall cycles %.0f", m.Stats().BankStalls),
				}, nil
			})
		if err != nil {
			return err
		}
		res.Rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblSublists (A3) sweeps the Helman–JáJá sublist count s on the SMP
// for a Random list: too few sublists cause load imbalance across
// processors, too many add bookkeeping overhead; the paper's choice is
// s = 8p.
func (e *Env) RunAblSublists(n, procs int, factors []int, seed uint64) (*AblationResult, error) {
	res := &AblationResult{Title: fmt.Sprintf("A3: SMP sublist count (random list, n=%d, p=%d)", n, procs)}
	res.Rows = make([]AblationRow, len(factors))
	_, err := e.runSweep(len(res.Rows), e.stdOpts(), func(idx int, c *Cell) error {
		f := factors[idx]
		s := f * procs
		lKey := sweep.ListKey(n, list.Random.String(), seed)
		row, err := Memo(c, fmt.Sprintf("abl/sublists/p=%d/s=%d/seed=%d", procs, s, seed),
			[]string{lKey}, appendAblationRow, consumeAblationRow, func() (AblationRow, error) {
				l := cached(c, lKey, func() *list.List { return list.New(n, list.Random, seed) })
				m := c.SMP(smp.DefaultConfig(procs))
				listrank.RankSMP(l, m, s, seed^uint64(s))
				extra := ""
				if f == 8 {
					extra = "paper's choice"
				}
				return AblationRow{
					Config:  fmt.Sprintf("s=%dp (%d)", f, s),
					Seconds: m.Seconds(),
					Extra:   extra,
				}, nil
			})
		if err != nil {
			return err
		}
		res.Rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblShortcut (A4) compares Alg. 3 (full shortcut, no star check)
// against the Alg. 2 form (single shortcut plus per-iteration star
// computation) on the MTA — the design choice §4 discusses.
func (e *Env) RunAblShortcut(n, edgeFactor, procs int, seed uint64) (*AblationResult, error) {
	res := &AblationResult{Title: fmt.Sprintf("A4: SV shortcut strategy on the MTA (n=%d, m=%d)", n, edgeFactor*n)}
	variants := []struct {
		config string
		bad    string
		label  func(*graph.Graph, *mta.Machine, sim.Sched) []int32
	}{
		{"Alg. 3: full shortcut, no star check", "harness: A4 full-shortcut labeling is wrong", concomp.LabelMTA},
		{"Alg. 2: single shortcut + star check", "harness: A4 star-check labeling is wrong", concomp.LabelMTAStarCheck},
	}
	res.Rows = make([]AblationRow, len(variants))
	_, err := e.runSweep(len(res.Rows), e.stdOpts(), func(idx int, c *Cell) error {
		v := variants[idx]
		gKey := sweep.GnmKey(n, edgeFactor*n, seed)
		ufKey := sweep.UnionFindKey(gKey)
		row, err := Memo(c, fmt.Sprintf("abl/shortcut/p=%d/variant=%d", procs, idx),
			[]string{gKey, ufKey}, appendAblationRow, consumeAblationRow, func() (AblationRow, error) {
				g := cached(c, gKey, func() *graph.Graph { return graph.RandomGnm(n, edgeFactor*n, seed) })
				want := cached(c, ufKey, func() []int32 { return concomp.UnionFind(g) })
				m := c.MTA(mta.DefaultConfig(procs))
				got := v.label(g, m, sim.SchedDynamic)
				if !graph.SameComponents(want, got) {
					panic(v.bad)
				}
				return AblationRow{
					Config:  v.config,
					Seconds: m.Seconds(),
					Extra:   fmt.Sprintf("%d regions", m.Stats().Regions),
				}, nil
			})
		if err != nil {
			return err
		}
		res.Rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblCache (A5) sweeps the SMP's L2 size for list ranking on a Random
// list: the random-list penalty is a cache-capacity effect, so it should
// shrink once the working set fits.
func (e *Env) RunAblCache(n, procs int, l2MB []int, seed uint64) (*AblationResult, error) {
	res := &AblationResult{Title: fmt.Sprintf("A5: SMP L2 capacity vs random-list penalty (n=%d, p=%d)", n, procs)}
	res.Rows = make([]AblationRow, len(l2MB))
	_, err := e.runSweep(len(res.Rows), e.stdOpts(), func(idx int, c *Cell) error {
		mb := l2MB[idx]
		layouts := []list.Layout{list.Ordered, list.Random}
		keys := make([]string, len(layouts))
		for li, layout := range layouts {
			keys[li] = sweep.ListKey(n, layout.String(), seed)
		}
		row, err := Memo(c, fmt.Sprintf("abl/cache/p=%d/l2mb=%d/seed=%d", procs, mb, seed),
			keys, appendAblationRow, consumeAblationRow, func() (AblationRow, error) {
				var secs [2]float64
				for li, layout := range layouts {
					l := cached(c, keys[li], func() *list.List { return list.New(n, layout, seed) })
					cfg := smp.DefaultConfig(procs)
					cfg.L2Bytes = mb << 20
					m := c.SMP(cfg)
					listrank.RankSMP(l, m, 8*procs, seed^uint64(mb))
					secs[li] = m.Seconds()
				}
				return AblationRow{
					Config:  fmt.Sprintf("L2=%dMB", mb),
					Seconds: secs[1],
					Extra:   fmt.Sprintf("random/ordered gap %.1fx", secs[1]/secs[0]),
				}, nil
			})
		if err != nil {
			return err
		}
		res.Rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblAssociativity (A6) asks whether the E4500's direct-mapped caches
// are part of the SMP's random-list penalty: the same run with 2/4-way
// caches removes conflict misses, leaving only capacity misses.
func (e *Env) RunAblAssociativity(n, procs int, assocs []int, seed uint64) (*AblationResult, error) {
	res := &AblationResult{Title: fmt.Sprintf("A6: SMP cache associativity (random list, n=%d, p=%d)", n, procs)}
	res.Rows = make([]AblationRow, len(assocs))
	_, err := e.runSweep(len(res.Rows), e.stdOpts(), func(idx int, c *Cell) error {
		a := assocs[idx]
		lKey := sweep.ListKey(n, list.Random.String(), seed)
		row, err := Memo(c, fmt.Sprintf("abl/assoc/p=%d/assoc=%d/seed=%d", procs, a, seed),
			[]string{lKey}, appendAblationRow, consumeAblationRow, func() (AblationRow, error) {
				l := cached(c, lKey, func() *list.List { return list.New(n, list.Random, seed) })
				cfg := smp.DefaultConfig(procs)
				cfg.L1Assoc = a
				cfg.L2Assoc = a
				m := c.SMP(cfg)
				listrank.RankSMP(l, m, 8*procs, seed^uint64(a))
				extra := ""
				if a == 1 {
					extra = "direct mapped (E4500)"
				}
				return AblationRow{
					Config:  fmt.Sprintf("%d-way", a),
					Seconds: m.Seconds(),
					Extra:   extra,
				}, nil
			})
		if err != nil {
			return err
		}
		res.Rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblReduction (A7) demonstrates §2.2's hotspot remark with a global
// sum of n words on the MTA: (a) every thread int_fetch_adds one shared
// counter, which serializes at the counter's memory module; (b) threads
// accumulate privately and combine at the end — "usually these can be
// worked around in software".
func (e *Env) RunAblReduction(n, procs int) (*AblationResult, error) {
	res := &AblationResult{Title: fmt.Sprintf("A7: MTA global sum, hotspot vs software combine (n=%d, p=%d)", n, procs)}
	const valsBase = uint64(9) << 40
	const counter = uint64(10) << 40

	res.Rows = make([]AblationRow, 2)
	_, err := e.runSweep(len(res.Rows), e.stdOpts(), func(idx int, c *Cell) error {
		row, err := Memo(c, fmt.Sprintf("abl/reduction/n=%d/p=%d/variant=%d", n, procs, idx),
			nil, appendAblationRow, consumeAblationRow, func() (AblationRow, error) {
				m := c.MTA(mta.DefaultConfig(procs))
				var config string
				if idx == 0 {
					config = "int_fetch_add on one counter"
					m.ParallelFor(n, sim.SchedDynamic, func(i int, t *mta.Thread) {
						t.Load(valsBase + uint64(i))
						t.FetchAdd(counter)
					})
				} else {
					config = "stream-local partials + combine"
					m.ParallelFor(n, sim.SchedDynamic, func(i int, t *mta.Thread) {
						t.Load(valsBase + uint64(i))
						t.Instr(1) // accumulate into a stream-local register
					})
					streams := m.Config().UseStreams * procs
					m.ParallelFor(streams, sim.SchedDynamic, func(i int, t *mta.Thread) {
						t.FetchAdd(counter) // one combine per stream
					})
				}
				return AblationRow{
					Config:  config,
					Seconds: m.Seconds(),
					Extra:   fmt.Sprintf("bank-stall cycles %.0f", m.Stats().BankStalls),
				}, nil
			})
		if err != nil {
			return err
		}
		res.Rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
