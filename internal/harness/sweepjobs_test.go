package harness

// Scheduler-level guarantees of the sweep rewrite: every experiment's
// rendered artifacts — JSON, CSV, and the forwarded trace stream — are
// byte-identical for any Jobs value, and a panicking cell fails its own
// cell without taking down the sweep.

import (
	"bytes"
	"strings"
	"testing"

	"pargraph/internal/trace"
)

// jobsSweep is the Jobs values every determinism test compares: the
// sequential baseline, partial overlaps (where a cell may wait for
// another to record their shared MTA run), and full oversubscription.
var jobsSweep = []int{1, 2, 4, 8}

// jobsEnv is the Env the determinism tests compare across Jobs values,
// forwarding every traced cell's events to sink (nil = untraced).
func jobsEnv(jobs int, sink trace.Sink) *Env {
	return &Env{Jobs: jobs, TraceSink: sink}
}

func fig1Artifacts(t *testing.T, jobs int) (jsonOut, csvOut []byte, events []trace.Event) {
	t.Helper()
	rec := &trace.Recorder{}
	res, err := jobsEnv(jobs, rec).RunFig1(DefaultFig1(Small))
	if err != nil {
		t.Fatal(err)
	}
	var jb, cb bytes.Buffer
	if err := (&Report{Fig1: res}).WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), rec.Events
}

func fig2Artifacts(t *testing.T, jobs int) (jsonOut, csvOut []byte, events []trace.Event) {
	t.Helper()
	rec := &trace.Recorder{}
	res, err := jobsEnv(jobs, rec).RunFig2(DefaultFig2(Small))
	if err != nil {
		t.Fatal(err)
	}
	var jb, cb bytes.Buffer
	if err := (&Report{Fig2: res}).WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), rec.Events
}

func coloringArtifacts(t *testing.T, jobs int) (jsonOut []byte, events []trace.Event) {
	t.Helper()
	rec := &trace.Recorder{}
	res, err := jobsEnv(jobs, rec).RunColoring(DefaultColoring(Small))
	if err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	if err := (&Report{Coloring: res}).WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), rec.Events
}

// sameEvents compares two forwarded trace streams byte-for-byte via
// their rendered Chrome traces (Event holds maps and slices, so the
// rendered form is the canonical comparison).
func sameEvents(t *testing.T, name string, jobs int, want, got []trace.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d trace events at jobs=%d, want %d", name, len(got), jobs, len(want))
		return
	}
	render := func(evs []trace.Event) []byte {
		var b bytes.Buffer
		rec := &trace.Recorder{Events: evs}
		if err := rec.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(render(want), render(got)) {
		t.Errorf("%s: trace stream differs between jobs=1 and jobs=%d", name, jobs)
	}
}

// TestJobsDeterminismFig1 pins the tentpole contract on E1: JSON, CSV,
// and the forwarded trace stream are byte-identical for any Jobs value.
func TestJobsDeterminismFig1(t *testing.T) {
	forceHostParallelism(t, 8)
	json1, csv1, ev1 := fig1Artifacts(t, 1)
	if len(json1) == 0 || len(csv1) == 0 || len(ev1) == 0 {
		t.Fatal("empty sequential artifacts")
	}
	for _, jobs := range jobsSweep[1:] {
		jsonJ, csvJ, evJ := fig1Artifacts(t, jobs)
		if !bytes.Equal(json1, jsonJ) {
			t.Errorf("fig1 JSON differs between jobs=1 and jobs=%d", jobs)
		}
		if !bytes.Equal(csv1, csvJ) {
			t.Errorf("fig1 CSV differs between jobs=1 and jobs=%d", jobs)
		}
		sameEvents(t, "fig1", jobs, ev1, evJ)
	}
}

func TestJobsDeterminismFig2(t *testing.T) {
	forceHostParallelism(t, 8)
	json1, csv1, ev1 := fig2Artifacts(t, 1)
	if len(json1) == 0 || len(csv1) == 0 || len(ev1) == 0 {
		t.Fatal("empty sequential artifacts")
	}
	for _, jobs := range jobsSweep[1:] {
		jsonJ, csvJ, evJ := fig2Artifacts(t, jobs)
		if !bytes.Equal(json1, jsonJ) {
			t.Errorf("fig2 JSON differs between jobs=1 and jobs=%d", jobs)
		}
		if !bytes.Equal(csv1, csvJ) {
			t.Errorf("fig2 CSV differs between jobs=1 and jobs=%d", jobs)
		}
		sameEvents(t, "fig2", jobs, ev1, evJ)
	}
}

func TestJobsDeterminismColoring(t *testing.T) {
	forceHostParallelism(t, 8)
	json1, ev1 := coloringArtifacts(t, 1)
	if len(json1) == 0 || len(ev1) == 0 {
		t.Fatal("empty sequential artifacts")
	}
	for _, jobs := range jobsSweep[1:] {
		jsonJ, evJ := coloringArtifacts(t, jobs)
		if !bytes.Equal(json1, jsonJ) {
			t.Errorf("coloring JSON differs between jobs=1 and jobs=%d", jobs)
		}
		sameEvents(t, "coloring", jobs, ev1, evJ)
	}
}

// TestJobsDeterminismProfile covers the profile sweep, traced with
// sampling: rendered Chrome trace and attribution CSV must not depend
// on Jobs.
func TestJobsDeterminismProfile(t *testing.T) {
	forceHostParallelism(t, 8)
	params := ProfileParams{Kernel: "fig1", Machine: "both", N: 30000, Procs: 8, Seed: 0x51}
	run := func(jobs int) (chrome, csv []byte) {
		return profileArtifacts(t, jobsEnv(jobs, nil), params, 500)
	}
	chrome1, csv1 := run(1)
	if len(chrome1) == 0 || len(csv1) == 0 {
		t.Fatal("empty artifacts")
	}
	for _, jobs := range jobsSweep[1:] {
		chromeJ, csvJ := run(jobs)
		if !bytes.Equal(chrome1, chromeJ) {
			t.Errorf("profile Chrome trace differs between jobs=1 and jobs=%d", jobs)
		}
		if !bytes.Equal(csv1, csvJ) {
			t.Errorf("profile attribution CSV differs between jobs=1 and jobs=%d", jobs)
		}
	}
}

// TestJobsPanicConfinedToCell proves one bad cell fails its own cell
// without killing the sweep: the error carries the cell's panic, and
// RunTreeEval (whose cells verify) surfaces it as an ordinary error.
func TestJobsPanicConfinedToCell(t *testing.T) {
	forceHostParallelism(t, 8)
	// leaves[1] = 0 makes treecon.RandomExpr panic inside that cell (an
	// expression needs at least one leaf); the other cells must still
	// run to completion and the sweep must report the panic as that
	// cell's error rather than crashing the process.
	_, err := jobsEnv(4, nil).RunTreeEval([]int{64, 0, 128}, 4, 7)
	if err == nil {
		t.Fatal("sweep with a panicking cell reported no error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not identify the panicking cell: %v", err)
	}
}
