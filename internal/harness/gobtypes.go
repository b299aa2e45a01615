package harness

import (
	"encoding/gob"
	"io"
)

// init encodes a zero value of every type the sweep cache persists
// through gob, once, in the order a cold pass over E1–E8 first meets
// them: []int32 (E2's union-find labels), exprRef (E7), specRef (E8),
// then the prefix profile's prefixIn, which no suite spec reads. gob
// numbers types per process in first-use order and writes the numbers
// into the bytes, so without this an input's cached bytes, and the
// digest a manifest records for it, would depend on what the process
// had encoded before: a server that ran E8 before E2 recorded E2's
// union-find inputs 10 bytes longer than a fresh process writes them.
// Fixing the order here makes every process write the bytes a fresh
// E1–E8 pass writes, which is what perfbench/pins.json holds. It goes
// when every cached type has a binary codec of its own.
func init() {
	for _, v := range []any{[]int32{}, exprRef{}, specRef{}, prefixIn{}} {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			panic(err)
		}
	}
}
