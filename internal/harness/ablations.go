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

// runAblation runs an ablation's n cells (see runCells) into a table
// under title.
func (e *Env) runAblation(title string, n int, cell func(i int, c *Cell) (AblationRow, error)) (*AblationResult, error) {
	rows, err := runCells(e, n, cell)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: title, Rows: rows}, nil
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
	title := fmt.Sprintf("A1: MTA walk scheduling (random list, n=%d, p=%d)", n, procs)
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
	return e.runAblation(title, len(grains)*len(scheds), func(idx int, c *Cell) (AblationRow, error) {
		g, sched := grains[idx/len(scheds)], scheds[idx%len(scheds)]
		lKey := sweep.ListKey(n, list.Random.String(), seed)
		return Memo(c, fmt.Sprintf("abl/sched/p=%d/nwalk=%d/sched=%s/grain=%s", procs, g.nwalk, sched.name, g.name),
			[]string{lKey}, func() (AblationRow, error) {
				l := cached(c, lKey, func() *list.List { return list.New(n, list.Random, seed) })
				m := c.MTA(cfg)
				listrank.RankMTA(l, m, g.nwalk, sched.s)
				return AblationRow{
					Config:  g.name + ", " + sched.name,
					Seconds: m.Seconds(),
					Extra:   fmt.Sprintf("utilization %.0f%%", m.Utilization()*100),
				}, nil
			})
	})
}

// RunAblHashing (A2) measures the MTA's logical-to-physical address
// hashing by sweeping memory at a pathological power-of-two stride with
// hashing on and off. With hashing off the stride hammers one memory
// bank; hashing spreads the same references evenly.
func (e *Env) RunAblHashing(refs, procs int) (*AblationResult, error) {
	title := fmt.Sprintf("A2: MTA address hashing (stride sweep, %d refs, p=%d)", refs, procs)
	hashedBy := []bool{true, false}
	return e.runAblation(title, len(hashedBy), func(idx int, c *Cell) (AblationRow, error) {
		hashed := hashedBy[idx]
		return Memo(c, fmt.Sprintf("abl/hashing/refs=%d/p=%d/hashed=%t", refs, procs, hashed),
			nil, func() (AblationRow, error) {
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
	})
}

// RunAblSublists (A3) sweeps the Helman–JáJá sublist count s on the SMP
// for a Random list: too few sublists cause load imbalance across
// processors, too many add bookkeeping overhead; the paper's choice is
// s = 8p.
func (e *Env) RunAblSublists(n, procs int, factors []int, seed uint64) (*AblationResult, error) {
	title := fmt.Sprintf("A3: SMP sublist count (random list, n=%d, p=%d)", n, procs)
	return e.runAblation(title, len(factors), func(idx int, c *Cell) (AblationRow, error) {
		f := factors[idx]
		s := f * procs
		lKey := sweep.ListKey(n, list.Random.String(), seed)
		return Memo(c, fmt.Sprintf("abl/sublists/p=%d/s=%d/seed=%d", procs, s, seed),
			[]string{lKey}, func() (AblationRow, error) {
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
	})
}

// RunAblShortcut (A4) compares Alg. 3 (full shortcut, no star check)
// against the Alg. 2 form (single shortcut plus per-iteration star
// computation) on the MTA — the design choice §4 discusses.
func (e *Env) RunAblShortcut(n, edgeFactor, procs int, seed uint64) (*AblationResult, error) {
	title := fmt.Sprintf("A4: SV shortcut strategy on the MTA (n=%d, m=%d)", n, edgeFactor*n)
	variants := []struct {
		config string
		bad    string
		label  func(*graph.Graph, *mta.Machine, sim.Sched) []int32
	}{
		{"Alg. 3: full shortcut, no star check", "harness: A4 full-shortcut labeling is wrong", concomp.LabelMTA},
		{"Alg. 2: single shortcut + star check", "harness: A4 star-check labeling is wrong", concomp.LabelMTAStarCheck},
	}
	return e.runAblation(title, len(variants), func(idx int, c *Cell) (AblationRow, error) {
		v := variants[idx]
		gKey := sweep.GnmKey(n, edgeFactor*n, seed)
		ufKey := sweep.UnionFindKey(gKey)
		return Memo(c, fmt.Sprintf("abl/shortcut/p=%d/variant=%d", procs, idx),
			[]string{gKey, ufKey}, func() (AblationRow, error) {
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
	})
}

// RunAblCache (A5) sweeps the SMP's L2 size for list ranking on a Random
// list: the random-list penalty is a cache-capacity effect, so it should
// shrink once the working set fits.
func (e *Env) RunAblCache(n, procs int, l2MB []int, seed uint64) (*AblationResult, error) {
	title := fmt.Sprintf("A5: SMP L2 capacity vs random-list penalty (n=%d, p=%d)", n, procs)
	return e.runAblation(title, len(l2MB), func(idx int, c *Cell) (AblationRow, error) {
		mb := l2MB[idx]
		layouts := []list.Layout{list.Ordered, list.Random}
		keys := make([]string, len(layouts))
		for li, layout := range layouts {
			keys[li] = sweep.ListKey(n, layout.String(), seed)
		}
		return Memo(c, fmt.Sprintf("abl/cache/p=%d/l2mb=%d/seed=%d", procs, mb, seed),
			keys, func() (AblationRow, error) {
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
	})
}

// RunAblAssociativity (A6) asks whether the E4500's direct-mapped caches
// are part of the SMP's random-list penalty: the same run with 2/4-way
// caches removes conflict misses, leaving only capacity misses.
func (e *Env) RunAblAssociativity(n, procs int, assocs []int, seed uint64) (*AblationResult, error) {
	title := fmt.Sprintf("A6: SMP cache associativity (random list, n=%d, p=%d)", n, procs)
	return e.runAblation(title, len(assocs), func(idx int, c *Cell) (AblationRow, error) {
		a := assocs[idx]
		lKey := sweep.ListKey(n, list.Random.String(), seed)
		return Memo(c, fmt.Sprintf("abl/assoc/p=%d/assoc=%d/seed=%d", procs, a, seed),
			[]string{lKey}, func() (AblationRow, error) {
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
	})
}

// RunAblReduction (A7) demonstrates §2.2's hotspot remark with a global
// sum of n words on the MTA: (a) every thread int_fetch_adds one shared
// counter, which serializes at the counter's memory module; (b) threads
// accumulate privately and combine at the end — "usually these can be
// worked around in software".
func (e *Env) RunAblReduction(n, procs int) (*AblationResult, error) {
	title := fmt.Sprintf("A7: MTA global sum, hotspot vs software combine (n=%d, p=%d)", n, procs)
	const valsBase = uint64(9) << 40
	const counter = uint64(10) << 40

	return e.runAblation(title, 2, func(idx int, c *Cell) (AblationRow, error) {
		return Memo(c, fmt.Sprintf("abl/reduction/n=%d/p=%d/variant=%d", n, procs, idx),
			nil, func() (AblationRow, error) {
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
	})
}
