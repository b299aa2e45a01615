package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestReportJSONRoundTrip(t *testing.T) {
	p := DefaultFig1(Small)
	p.Sizes = []int{1 << 12}
	p.Procs = []int{1, 2}
	f1, err := testEnv().RunFig1(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		Fig1:      f1,
		Ablations: []*AblationResult{must(testEnv().RunAblScheduling(1<<12, 1, 1))},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Fig1.Series) != len(f1.Series) {
		t.Fatalf("series lost in round trip: %d vs %d", len(back.Fig1.Series), len(f1.Series))
	}
	if back.Fig1.Series[0].Points[0].Seconds != f1.Series[0].Points[0].Seconds {
		t.Fatal("point values corrupted")
	}
	if back.Table1 != nil || back.Fig2 != nil {
		t.Fatal("omitted fields materialized")
	}
	if len(back.Ablations) != 1 || len(back.Ablations[0].Rows) != 4 {
		t.Fatal("ablation rows lost")
	}
}

func TestCSVOutput(t *testing.T) {
	p := DefaultFig1(Small)
	p.Sizes = []int{1 << 12}
	p.Procs = []int{1}
	f1, err := testEnv().RunFig1(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f1.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 machines × 2 layouts × 1 proc × 1 size
	if len(lines) != 5 {
		t.Fatalf("got %d CSV lines, want 5:\n%s", len(lines), buf.String())
	}
	if lines[0] != "machine,workload,procs,x,seconds" {
		t.Fatalf("bad header %q", lines[0])
	}

	tp := DefaultTable1(Small)
	tp.ListN = 1 << 13
	tp.GraphN = 1 << 10
	tp.GraphM = 10 << 10
	buf.Reset()
	if err := must(testEnv().RunTable1(tp)).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 10 {
		t.Fatalf("table CSV has %d lines, want 10 (header + 3 rows x 3 procs)", got)
	}
}
