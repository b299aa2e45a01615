package gio

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"pargraph/internal/graph"
)

func TestRoundTrip(t *testing.T) {
	g := graph.RandomGnm(100, 300, 1)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.M() != g.M() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", back.N, back.M(), g.N, g.M())
	}
	for i := range g.Edges {
		if g.Edges[i] != back.Edges[i] {
			t.Fatalf("edge %d changed: %v vs %v", i, back.Edges[i], g.Edges[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(seed uint64, nn, mm uint16) bool {
		n := int(nn)%200 + 1
		maxM := n * (n - 1) / 2
		m := int(mm) % (maxM + 1)
		g := graph.RandomGnm(n, m, seed)
		var buf bytes.Buffer
		if WriteDIMACS(&buf, g) != nil {
			return false
		}
		back, err := ReadDIMACS(&buf)
		if err != nil || back.N != g.N || back.M() != g.M() {
			return false
		}
		for i := range g.Edges {
			if g.Edges[i] != back.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadHandWritten(t *testing.T) {
	in := `c a comment
c another

p edge 4 2
e 1 2
e 3 4
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d", g.N, g.M())
	}
	if g.Edges[0] != (graph.Edge{U: 0, V: 1}) || g.Edges[1] != (graph.Edge{U: 2, V: 3}) {
		t.Fatalf("edges wrong: %v", g.Edges)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no-problem":        "e 1 2\n",
		"bad-kind":          "p min 3 1\ne 1 2\n",
		"edge-out-of-range": "p edge 2 1\ne 1 5\n",
		"zero-index":        "p edge 2 1\ne 0 1\n",
		"short-edge":        "p edge 2 1\ne 1\n",
		"count-mismatch":    "p edge 3 5\ne 1 2\n",
		"duplicate-problem": "p edge 2 1\np edge 2 1\ne 1 2\n",
		"unknown-record":    "p edge 2 1\nx 1 2\n",
		"self-loop":         "p edge 2 1\ne 2 2\n",
		"empty":             "",
		"garbage-sizes":     "p edge two 1\n",
	}
	for name, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
