package pargraph

// One benchmark per paper artifact (Fig. 1, Fig. 2, Table 1, the §5
// summary ratios, the §3 saturation claim) plus the DESIGN.md ablations
// and real wall-clock benchmarks of the native kernels. The simulated
// benchmarks report the simulated machine time as "sim_s/op" alongside
// the host time; EXPERIMENTS.md records the shapes.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"pargraph/internal/cmdutil"
	"pargraph/internal/coloring"
	"pargraph/internal/concomp"
	"pargraph/internal/diskcache"
	"pargraph/internal/euler"
	"pargraph/internal/graph"
	"pargraph/internal/harness"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/rng"
	"pargraph/internal/runner"
	"pargraph/internal/sim"
	"pargraph/internal/smp"
	"pargraph/internal/spec"
	"pargraph/internal/treecon"
)

const (
	benchListN  = 1 << 17
	benchGraphN = 1 << 13
	benchProcs  = 8
)

// benchEnv is the Env the harness benchmarks run under: cells in
// sequence, regions replayed serially, nothing cached or traced.
func benchEnv() *harness.Env { return &harness.Env{} }

// --- Fig. 1: list ranking ---------------------------------------------

func benchFig1(b *testing.B, machine Machine, layout Layout) {
	b.Helper()
	var simSeconds float64
	for i := 0; i < b.N; i++ {
		res := SimulateListRank(machine, benchListN, layout, benchProcs, 1)
		simSeconds = res.Seconds
	}
	b.ReportMetric(simSeconds, "sim_s/op")
}

func BenchmarkFig1_MTA_Ordered(b *testing.B) { benchFig1(b, MTA, Ordered) }
func BenchmarkFig1_MTA_Random(b *testing.B)  { benchFig1(b, MTA, Random) }
func BenchmarkFig1_SMP_Ordered(b *testing.B) { benchFig1(b, SMP, Ordered) }
func BenchmarkFig1_SMP_Random(b *testing.B)  { benchFig1(b, SMP, Random) }

// --- Fig. 2: connected components -------------------------------------

func benchFig2(b *testing.B, machine Machine) {
	b.Helper()
	g := RandomGraph(benchGraphN, 8*benchGraphN, 2)
	b.ResetTimer()
	var simSeconds float64
	for i := 0; i < b.N; i++ {
		res := SimulateComponents(machine, g, benchProcs)
		simSeconds = res.Seconds
	}
	b.ReportMetric(simSeconds, "sim_s/op")
}

func BenchmarkFig2_MTA(b *testing.B) { benchFig2(b, MTA) }
func BenchmarkFig2_SMP(b *testing.B) { benchFig2(b, SMP) }

// --- Table 1: MTA utilization ------------------------------------------

func BenchmarkTable1(b *testing.B) {
	p := harness.DefaultTable1(harness.Small)
	p.ListN = benchListN
	p.GraphN = benchGraphN
	p.GraphM = 20 * benchGraphN
	var util float64
	for i := 0; i < b.N; i++ {
		res, err := benchEnv().RunTable1(p)
		if err != nil {
			b.Fatal(err)
		}
		util = res.Rows[0].Utilization[len(res.Rows[0].Utilization)-1]
	}
	b.ReportMetric(util*100, "util_%")
}

// --- E4: headline summary ----------------------------------------------

func BenchmarkSummary(b *testing.B) {
	f1p := harness.DefaultFig1(harness.Small)
	f1p.Sizes = []int{benchListN}
	f2p := harness.DefaultFig2(harness.Small)
	f2p.N = benchGraphN
	f2p.EdgeFactors = []int{4, 20}
	var adv float64
	for i := 0; i < b.N; i++ {
		f1, err := benchEnv().RunFig1(f1p)
		if err != nil {
			b.Fatal(err)
		}
		f2, err := benchEnv().RunFig2(f2p)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := harness.Summarize(f1, f2)
		if err != nil {
			b.Fatal(err)
		}
		adv = sum.Ratios[1].Measured // random-list SMP/MTA advantage
	}
	b.ReportMetric(adv, "mta_advantage_x")
}

// --- E5: saturation ------------------------------------------------------

func BenchmarkSaturation(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		res, err := benchEnv().RunSaturation([]int{benchProcs}, []int{10000}, 3)
		if err != nil {
			b.Fatal(err)
		}
		util = res.Rows[0].Utilization
	}
	b.ReportMetric(util*100, "util_%")
}

// --- Ablations -----------------------------------------------------------

func BenchmarkAblationScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchEnv().RunAblScheduling(1<<15, benchProcs, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHashing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchEnv().RunAblHashing(1<<16, benchProcs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSublists(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchEnv().RunAblSublists(1<<15, benchProcs, []int{1, 8, 64}, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationShortcut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchEnv().RunAblShortcut(1<<11, 8, benchProcs, 9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchEnv().RunAblCache(1<<17, 1, []int{1, 4, 16}, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Native kernels (real wall-clock) ------------------------------------

func BenchmarkNativeSequentialRank(b *testing.B) {
	l := list.New(benchListN, list.Random, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		listrank.Sequential(l)
	}
}

func BenchmarkNativeHelmanJaja(b *testing.B) {
	l := list.New(benchListN, list.Random, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		listrank.HelmanJaja(l, benchProcs)
	}
}

func BenchmarkNativeUnionFind(b *testing.B) {
	g := graph.RandomGnm(benchGraphN, 8*benchGraphN, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		concomp.UnionFind(g)
	}
}

func BenchmarkNativeSV(b *testing.B) {
	g := graph.RandomGnm(benchGraphN, 8*benchGraphN, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		concomp.SV(g, benchProcs)
	}
}

func BenchmarkNativeAwerbuchShiloach(b *testing.B) {
	g := graph.RandomGnm(benchGraphN, 8*benchGraphN, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		concomp.AwerbuchShiloach(g, benchProcs)
	}
}

func BenchmarkNativeRandomMate(b *testing.B) {
	g := graph.RandomGnm(benchGraphN, 8*benchGraphN, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		concomp.RandomMate(g, uint64(i))
	}
}

// --- Simulator engines themselves ----------------------------------------

func BenchmarkSimulatorMTA(b *testing.B) {
	l := list.New(benchListN, list.Random, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mta.New(mta.DefaultConfig(benchProcs))
		listrank.RankMTA(l, m, benchListN/listrank.DefaultNodesPerWalk, sim.SchedDynamic)
	}
}

func BenchmarkSimulatorSMP(b *testing.B) {
	l := list.New(benchListN, list.Random, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := smp.New(smp.DefaultConfig(benchProcs))
		listrank.RankSMP(l, m, 8*benchProcs, 2)
	}
}

// The coloring engine pair mirrors the list-ranking pair above so the
// third workload shows up in BENCH_simulators.json: several short
// sharded regions per round instead of a few long walks.
func BenchmarkSimulatorColoringMTA(b *testing.B) {
	g := graph.RandomGnm(benchGraphN, 8*benchGraphN, 1)
	b.ResetTimer()
	var simSeconds float64
	for i := 0; i < b.N; i++ {
		m := mta.New(mta.DefaultConfig(benchProcs))
		coloring.ColorMTA(g, m, sim.SchedDynamic)
		simSeconds = m.Seconds()
	}
	b.ReportMetric(simSeconds, "sim_s/op")
}

func BenchmarkSimulatorColoringSMP(b *testing.B) {
	g := graph.RandomGnm(benchGraphN, 8*benchGraphN, 1)
	b.ResetTimer()
	var simSeconds float64
	for i := 0; i < b.N; i++ {
		m := smp.New(smp.DefaultConfig(benchProcs))
		coloring.ColorSMP(g, m)
		simSeconds = m.Seconds()
	}
	b.ReportMetric(simSeconds, "sim_s/op")
}

// BenchmarkHostScaling sweeps the host worker count over the two
// simulator engines on a body-heavy workload (a 2^20-node random list:
// the walk regions dominate and shard well). scripts/bench_simulators.sh
// turns the output into BENCH_simulators.json. Replay caps the worker
// count at GOMAXPROCS, so on a machine with fewer cores than the swept
// count the curve goes flat instead of inverting.
func BenchmarkHostScaling(b *testing.B) {
	const n = 1 << 20
	l := list.New(n, list.Random, 1)
	workers := []int{1, 2, 4, 8}
	if ncpu := runtime.NumCPU(); ncpu != 1 && ncpu != 2 && ncpu != 4 && ncpu != 8 {
		workers = append(workers, ncpu)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("MTA/workers=%d", w), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				m := mta.New(mta.DefaultConfig(benchProcs))
				m.SetHostWorkers(w)
				listrank.RankMTA(l, m, n/listrank.DefaultNodesPerWalk, sim.SchedDynamic)
				cycles = m.Cycles()
			}
			b.ReportMetric(cycles, "sim_cycles")
		})
		b.Run(fmt.Sprintf("SMP/workers=%d", w), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				m := smp.New(smp.DefaultConfig(benchProcs))
				m.SetHostWorkers(w)
				listrank.RankSMP(l, m, 8*benchProcs, 2)
				cycles = m.Cycles()
			}
			b.ReportMetric(cycles, "sim_cycles")
		})
	}
}

// BenchmarkSweepScaling sweeps the experiment scheduler's Jobs setting
// over two full harness sweeps — E1 (Fig. 1 list ranking, the issue's
// acceptance workload) and E8 (speculative coloring) — measuring sweep
// wall-clock as independent cells run concurrently.
// scripts/bench_sweeps.sh turns the output into BENCH_sweeps.json. The
// scheduler caps jobs at GOMAXPROCS, so on a machine with fewer cores
// than the swept count the curve goes flat instead of inverting.
func BenchmarkSweepScaling(b *testing.B) {
	fig1 := harness.DefaultFig1(harness.Small)
	coloringP := harness.DefaultColoring(harness.Small)
	jobs := []int{1, 2, 4, 8}
	if ncpu := runtime.NumCPU(); ncpu != 1 && ncpu != 2 && ncpu != 4 && ncpu != 8 {
		jobs = append(jobs, ncpu)
	}
	for _, j := range jobs {
		b.Run(fmt.Sprintf("fig1/jobs=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&harness.Env{Jobs: j}).RunFig1(fig1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("coloring/jobs=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&harness.Env{Jobs: j}).RunColoring(coloringP); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmSweep measures the E1 Fig. 1 sweep against the result
// cache, cold (the store is empty: every cell simulates and is stored)
// and warm (every cell replays from the store without simulating).
// scripts/bench_sweeps.sh includes both in BENCH_sweeps.json; the
// cold/warm ratio is the result cache's whole value proposition.
func BenchmarkWarmSweep(b *testing.B) {
	fig1 := harness.DefaultFig1(harness.Small)
	runFig1 := func(store *diskcache.Store) error {
		_, err := (&harness.Env{ResultStore: store}).RunFig1(fig1)
		return err
	}
	b.Run("fig1/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store, err := diskcache.Open(b.TempDir(), harness.ResultSchema)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := runFig1(store); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fig1/warm", func(b *testing.B) {
		store, err := diskcache.Open(b.TempDir(), harness.ResultSchema)
		if err != nil {
			b.Fatal(err)
		}
		if err := runFig1(store); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runFig1(store); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentJobs measures job-level parallelism — the axis
// cmd/serve's -concurrency exposes now that every run carries its own
// harness.Env instead of serializing on process globals. Four identical
// cold fig1 runs execute through runner.RunContext with each run's own
// cell scheduler pinned to jobs=1, so any speedup between conc=1 and
// conc=4 comes purely from overlapping whole jobs, not from cells
// inside one job. No cache directory is attached: every run simulates.
// scripts/bench_sweeps.sh includes the conc=4/conc=1 ratio in
// BENCH_sweeps.json.
func BenchmarkConcurrentJobs(b *testing.B) {
	b.Setenv(cmdutil.CacheEnv, "")
	const specText = "[run]\ncommand = \"figures\"\nscale = \"small\"\njobs = 1\n" +
		"[figures]\nfig = 1\nformat = \"json\"\n"
	loadSpec := func() *spec.Spec {
		sp, err := spec.Parse([]byte(specText))
		if err != nil {
			b.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			b.Fatal(err)
		}
		return sp
	}
	const jobs = 4
	for _, conc := range []int{1, 4} {
		b.Run(fmt.Sprintf("fig1x%d/conc=%d", jobs, conc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sem := make(chan struct{}, conc)
				errs := make(chan error, jobs)
				var wg sync.WaitGroup
				for j := 0; j < jobs; j++ {
					sp := loadSpec()
					wg.Add(1)
					go func() {
						defer wg.Done()
						sem <- struct{}{}
						defer func() { <-sem }()
						if _, err := runner.RunContext(context.Background(), sp,
							runner.Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
							errs <- err
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6/E7 extras -----------------------------------------------------

func BenchmarkStreamsSweep(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		res, err := benchEnv().RunStreams(1<<15, 1, []int{40, 80}, 3)
		if err != nil {
			b.Fatal(err)
		}
		util = res.Rows[1].Utilization
	}
	b.ReportMetric(util*100, "util80_%")
}

func BenchmarkTreeEval(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := benchEnv().RunTreeEval([]int{1 << 12}, benchProcs, 3)
		if err != nil {
			b.Fatal(err)
		}
		adv = res.Rows[0].SMPSeconds / res.Rows[0].MTASeconds
	}
	b.ReportMetric(adv, "mta_advantage_x")
}

func BenchmarkAblationAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchEnv().RunAblAssociativity(1<<15, 4, []int{1, 4}, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchEnv().RunAblReduction(1<<15, benchProcs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeTreeContraction(b *testing.B) {
	e := treecon.RandomExpr(1<<14, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treecon.EvalContract(e, benchProcs)
	}
}

func BenchmarkEulerRoot(b *testing.B) {
	r := rng.New(1)
	edges := make([]graph.Edge, 0, 1<<14)
	for i := 1; i < 1<<14; i++ {
		edges = append(edges, graph.Edge{U: int32(r.Intn(i)), V: int32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := euler.Root(1<<14, edges, 0, benchProcs); err != nil {
			b.Fatal(err)
		}
	}
}
