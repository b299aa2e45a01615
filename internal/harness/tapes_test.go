package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"pargraph/internal/binenc"
	"pargraph/internal/concomp"
	"pargraph/internal/graph"
	"pargraph/internal/list"
	"pargraph/internal/listrank"
	"pargraph/internal/mta"
	"pargraph/internal/sim"
	"pargraph/internal/trace"
)

// liveRun runs kernel on a fresh machine of cfg with a recorder
// attached: what a cell computed before MTA runs were shared.
func liveRun(cfg mta.Config, kernel func(*mta.Machine)) (*mta.Machine, []trace.Event) {
	m := mta.New(cfg)
	rec := &trace.Recorder{}
	m.SetSink(rec)
	kernel(m)
	return m, rec.Events
}

func sameEventBytes(a, b []trace.Event) bool {
	return bytes.Equal(binenc.AppendList(nil, a), binenc.AppendList(nil, b))
}

// TestSharedRunsMatchLive: Table 1 and the streams sweep share one MTA
// run per input across their processor or stream counts; every cell's
// number and the forwarded event stream must equal live runs on each
// cell's own machine, at Jobs 1 and 4. (E1, E2 and E8 are pinned across
// Jobs by the sweepjobs tests and bit for bit by TestGoldenBits.)
func TestSharedRunsMatchLive(t *testing.T) {
	forceHostParallelism(t, 4)

	tp := DefaultTable1(Small)
	var wantUtil []float64
	var wantTable1 []trace.Event
	for row := 0; row < 3; row++ {
		for _, p := range tp.Procs {
			m, evs := liveRun(mta.DefaultConfig(p), func(m *mta.Machine) {
				switch row {
				case 0, 1:
					layout := []list.Layout{list.Random, list.Ordered}[row]
					listrank.RankMTA(list.New(tp.ListN, layout, tp.Seed), m, tp.ListN/tp.NodesPerWalk, sim.SchedDynamic)
				default:
					concomp.LabelMTA(graph.RandomGnm(tp.GraphN, tp.GraphM, tp.Seed+1), m, sim.SchedDynamic)
				}
			})
			wantUtil = append(wantUtil, m.Utilization())
			wantTable1 = append(wantTable1, evs...)
		}
	}

	const n, procs = 1 << 15, 2
	streams := []int{10, 40, 100}
	var wantStreams []StreamsRow
	var wantStreamEvs []trace.Event
	l := list.New(n, list.Random, 9)
	for _, s := range streams {
		cfg := mta.DefaultConfig(procs)
		cfg.UseStreams = s
		m, evs := liveRun(cfg, func(m *mta.Machine) {
			listrank.RankMTA(l, m, n/listrank.DefaultNodesPerWalk, sim.SchedDynamic)
		})
		wantStreams = append(wantStreams, StreamsRow{Streams: s, Seconds: m.Seconds(), Utilization: m.Utilization()})
		wantStreamEvs = append(wantStreamEvs, evs...)
	}

	for _, jobs := range []int{1, 4} {
		rec := &trace.Recorder{}
		res := must(jobsEnv(jobs, rec).RunTable1(tp))
		var got []float64
		for _, row := range res.Rows {
			got = append(got, row.Utilization...)
		}
		for i := range wantUtil {
			if math.Float64bits(got[i]) != math.Float64bits(wantUtil[i]) {
				t.Errorf("table1 jobs=%d cell %d: utilization %v, live run %v", jobs, i, got[i], wantUtil[i])
			}
		}
		if !sameEventBytes(rec.Events, wantTable1) {
			t.Errorf("table1 jobs=%d: forwarded events differ from live runs", jobs)
		}

		rec = &trace.Recorder{}
		sres := must(jobsEnv(jobs, rec).RunStreams(n, procs, streams, 9))
		for i, want := range wantStreams {
			if got := sres.Rows[i]; got != want {
				t.Errorf("streams jobs=%d row %d: %+v, live run %+v", jobs, i, got, want)
			}
		}
		if !sameEventBytes(rec.Events, wantStreamEvs) {
			t.Errorf("streams jobs=%d: forwarded events differ from live runs", jobs)
		}
	}
}

// TestSharedRunFailureFailsEveryCell: when the kernel recording a shared
// run returns an error or panics, every cell sharing the run fails with
// that error, and none waits forever.
func TestSharedRunFailureFailsEveryCell(t *testing.T) {
	forceHostParallelism(t, 4)
	boom := errors.New("kernel says no")
	kernels := map[string]func(*mta.Machine) error{
		"error": func(m *mta.Machine) error {
			listrank.RankMTA(list.New(5000, list.Random, 1), m, 500, sim.SchedDynamic)
			return boom
		},
		"panic": func(m *mta.Machine) error {
			m.Barrier()
			panic("kernel blew up")
		},
	}
	for name, kernel := range kernels {
		t.Run(name, func(t *testing.T) {
			const cells = 6
			errs := make([]error, cells)
			done := make(chan error, 1)
			go func() {
				_, err := runCells(jobsEnv(4, nil), cells, func(i int, c *Cell) (struct{}, error) {
					_, errs[i] = c.RunMTA("shared", cells, mta.DefaultConfig(1<<(i%4)), kernel)
					return struct{}{}, errs[i]
				})
				done <- err
			}()
			var sweepErr error
			select {
			case sweepErr = <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("a cell sharing the failed run is still waiting")
			}
			if sweepErr == nil {
				t.Fatal("the sweep reported no error")
			}
			failed := 0
			for i, err := range errs {
				switch {
				case err == nil:
					// Only the recording cell can leave no error here: it
					// panicked, and the scheduler reports its panic.
					if name != "panic" || !strings.Contains(sweepErr.Error(), "kernel blew up") {
						t.Errorf("cell %d did not fail", i)
					}
				case name == "error" && !errors.Is(err, boom):
					t.Errorf("cell %d failed with %v, want the kernel's error", i, err)
				case name == "panic" && !strings.Contains(err.Error(), "kernel blew up"):
					t.Errorf("cell %d failed with %v, want the recording kernel's panic", i, err)
				default:
					failed++
				}
			}
			if want := map[string]int{"error": cells, "panic": cells - 1}[name]; failed != want {
				t.Errorf("%d cells failed with the shared error, want %d", failed, want)
			}
		})
	}
}

// TestSharedRunsByName: cells share a tape only under the same run
// name, and a run whose declared uses do not all come (memo hits, shard
// peers) still serves the cells that do.
func TestSharedRunsByName(t *testing.T) {
	l := list.New(3000, list.Random, 2)
	nwalk := func(i int) int { return 300 + 100*(i/2) } // cells 0,1 and 2,3 share
	live := make([]float64, 4)
	for i := range live {
		m := mta.New(mta.DefaultConfig(1 + i%2))
		listrank.RankMTA(l, m, nwalk(i), sim.SchedDynamic)
		live[i] = m.Seconds()
	}
	got, err := runCells(jobsEnv(2, nil), len(live), func(i int, c *Cell) (float64, error) {
		run := fmt.Sprintf("RankMTA/nwalk=%d", nwalk(i))
		m, err := c.RunMTA(run, 3, mta.DefaultConfig(1+i%2), func(m *mta.Machine) error {
			listrank.RankMTA(l, m, nwalk(i), sim.SchedDynamic)
			return nil
		})
		return m.Seconds(), err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, live) {
		t.Fatalf("shared runs %v, live runs %v", got, live)
	}
}
