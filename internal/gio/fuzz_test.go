package gio

// Fuzz target for the DIMACS reader: arbitrary bytes must produce
// either a clean error or a valid graph, never a panic or a runaway
// allocation — and any graph that parses must survive a write/read
// round trip unchanged.

import (
	"bytes"
	"strings"
	"testing"
)

func FuzzReadDIMACS(f *testing.F) {
	f.Add("p edge 3 2\ne 1 2\ne 2 3\n")
	f.Add("c comment\np edge 1 0\n")
	f.Add("p edge 0 0\n")
	f.Add("p edge 2 1\ne 2 2\n")         // self-loop
	f.Add("p edge 1 999999999\n")        // lying header: huge edge count
	f.Add("p edge 999999999 1\ne 1 1\n") // huge vertex count is fine (no per-vertex alloc)
	f.Add("e 1 2\n")                     // edge before problem line
	f.Add("p edge 3 2\ne 1 2\n")         // fewer edges than promised
	f.Add("p edge 2 1\ne 0 1\n")         // 0-indexed endpoint (invalid)
	f.Add("p edge -1 -1\n")
	f.Add(strings.Repeat("c spam\n", 100))

	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadDIMACS(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		// Round trip: write and re-read must reproduce the graph exactly.
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		g2, err := ReadDIMACS(&buf)
		if err != nil {
			t.Fatalf("re-read of written graph: %v", err)
		}
		if g2.N != g.N || g2.M() != g.M() {
			t.Fatalf("round trip changed sizes: (%d,%d) -> (%d,%d)", g.N, g.M(), g2.N, g2.M())
		}
		for i := range g.Edges {
			if g.Edges[i] != g2.Edges[i] {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, g.Edges[i], g2.Edges[i])
			}
		}
	})
}
