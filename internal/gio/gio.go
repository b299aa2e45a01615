// Package gio reads and writes graphs in the DIMACS format of the
// implementation challenges the paper's related work was benchmarked in
// (Hsu/Ramachandran/Dean, Krishnamurthy et al., and Goddard et al. all
// report results from the 3rd DIMACS challenge): the unweighted
// "p edge" format with 1-indexed `e u v` lines.
package gio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pargraph/internal/graph"
)

// capHint bounds the edge-slice capacity preallocated from a header's
// declared edge count: the count is untrusted input, and a line like
// `p edge 1 999999999` must not allocate gigabytes before a single edge
// is read. Larger real inputs just grow by appending.
func capHint(m int) int {
	const max = 1 << 20
	if m > max {
		return max
	}
	return m
}

// WriteDIMACS writes g in the unweighted `p edge` format.
func WriteDIMACS(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c pargraph graph n=%d m=%d\n", g.N, g.M())
	fmt.Fprintf(bw, "p edge %d %d\n", g.N, g.M())
	for _, e := range g.Edges {
		fmt.Fprintf(bw, "e %d %d\n", e.U+1, e.V+1)
	}
	return bw.Flush()
}

// ReadDIMACS parses the unweighted `p edge` format. Comment lines (`c`)
// are ignored; edges are converted to 0-indexed vertices.
func ReadDIMACS(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var g *graph.Graph
	edges := 0
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "c":
			continue
		case "p":
			if g != nil {
				return nil, fmt.Errorf("gio: line %d: duplicate problem line", line)
			}
			if len(fields) != 4 || fields[1] != "edge" {
				return nil, fmt.Errorf("gio: line %d: want `p edge N M`, got %q", line, sc.Text())
			}
			n, err1 := strconv.Atoi(fields[2])
			m, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || n < 0 || m < 0 {
				return nil, fmt.Errorf("gio: line %d: bad problem sizes", line)
			}
			g = &graph.Graph{N: n, Edges: make([]graph.Edge, 0, capHint(m))}
			edges = m
		case "e":
			if g == nil {
				return nil, fmt.Errorf("gio: line %d: edge before problem line", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("gio: line %d: want `e u v`", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 1 || v < 1 || u > g.N || v > g.N {
				return nil, fmt.Errorf("gio: line %d: bad endpoints %q (want 1-indexed vertices in [1,%d])", line, sc.Text(), g.N)
			}
			if u == v {
				return nil, fmt.Errorf("gio: line %d: self-loop %q", line, sc.Text())
			}
			g.Edges = append(g.Edges, graph.Edge{U: int32(u - 1), V: int32(v - 1)})
		default:
			return nil, fmt.Errorf("gio: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("gio: no problem line")
	}
	if g.M() != edges {
		return nil, fmt.Errorf("gio: problem line promised %d edges, found %d", edges, g.M())
	}
	return g, nil
}
