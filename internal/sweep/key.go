package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Content-key constructors for the inputs experiment sweeps share
// through a Cache. Every parameter a generator depends on — including
// the seed — appears in its key, because persistent caches live across
// runs and processes and an ambiguous key would silently alias two
// different generations (see internal/diskcache).
//
// These helpers are the ONLY place key strings are built: the harness
// sweeps, the spec-driven runner, and any future subsystem all construct
// keys here, so a spec-derived key can never drift from the key the
// harness would have used for the same input. TestKeyProducers pins the
// exact strings and a source scan in the harness tests enforces that no
// call site builds one inline.

// ListKey addresses a linked list: list.New(n, layout, seed). The
// layout is its String() form ("Ordered", "Random", "Clustered").
func ListKey(n int, layout string, seed uint64) string {
	return fmt.Sprintf("list/%d/%s/%d", n, layout, seed)
}

// GnmKey addresses a uniform random graph: graph.RandomGnm(n, m, seed).
func GnmKey(n, m int, seed uint64) string {
	return fmt.Sprintf("gnm/%d/%d/%d", n, m, seed)
}

// RMATKey addresses a skewed RMAT graph: graph.RMAT(scale, m, seed).
func RMATKey(scale, m int, seed uint64) string {
	return fmt.Sprintf("rmat/%d/%d/%d", scale, m, seed)
}

// Mesh2DKey addresses a 2D grid: graph.Mesh2D(rows, cols). Meshes are
// deterministic, so no seed appears.
func Mesh2DKey(rows, cols int) string {
	return fmt.Sprintf("mesh2d/%d/%d", rows, cols)
}

// Mesh3DKey addresses a 3D grid: graph.Mesh3D(rows, cols, depth).
func Mesh3DKey(rows, cols, depth int) string {
	return fmt.Sprintf("mesh3d/%d/%d/%d", rows, cols, depth)
}

// Torus2DKey addresses a 2D torus: graph.Torus2D(rows, cols).
func Torus2DKey(rows, cols int) string {
	return fmt.Sprintf("torus2d/%d/%d", rows, cols)
}

// ExprKey addresses a random expression tree plus its sequential value:
// treecon.RandomExpr(leaves, seed).
func ExprKey(leaves int, seed uint64) string {
	return fmt.Sprintf("expr/%d/%d", leaves, seed)
}

// PrefixKey addresses the prefix-kernel input bundle (list plus
// sequential reference) built from list.New(n, layout, seed).
func PrefixKey(n int, layout string, seed uint64) string {
	return fmt.Sprintf("prefix/%d/%s/%d", n, layout, seed)
}

// DIMACSKey addresses a graph parsed from a DIMACS file rather than
// generated: the key is the SHA-256 of the file's bytes, so it names
// the content, not the path, and the parsed graph may persist and
// memoize like a generated one. The caller parses the same bytes it
// hashed.
func DIMACSKey(file []byte) string {
	sum := sha256.Sum256(file)
	return "dimacs/" + hex.EncodeToString(sum[:])
}

// UnionFindKey addresses the union-find component reference derived
// from the graph stored under graphKey.
func UnionFindKey(graphKey string) string { return graphKey + "/unionfind" }

// SpecRefKey addresses the host speculative-coloring reference derived
// from the graph stored under graphKey.
func SpecRefKey(graphKey string) string { return graphKey + "/specref" }

// ResultKey addresses one memoized sweep-cell result: the outcome of
// simulating one cell of one experiment sweep. costVersion is
// sim.CostSchemaVersion — the cost semantics of the simulator stack at
// the time the result was computed — and inputSchema is the input
// cache's schema (internal/harness.InputSchema) — the generators and
// encodings that produced the inputs — so bumping either strands every
// cached result at once. cell is the canonical result-relevant cell
// config (experiment, machine parameters, seeds, trace mode; never
// execution knobs like jobs or shard), and inputs are the content keys
// of the cached inputs the cell consumed. Each component after the
// cost version is length-framed so no two combinations can collide by
// concatenation.
func ResultKey(costVersion int, inputSchema, cell string, inputs ...string) string {
	key := fmt.Sprintf("result/c%d/%d:%s/%d:%s", costVersion, len(inputSchema), inputSchema, len(cell), cell)
	for _, in := range inputs {
		key += fmt.Sprintf("|%d:%s", len(in), in)
	}
	return key
}
