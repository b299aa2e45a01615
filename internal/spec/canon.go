package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Canonical renders the result-determining keys the validated spec's
// command reads, in the field table's order: the spec identity that
// reproducibility manifests hash. Execution knobs (workers, jobs,
// shard, cache_dir, the manifest path itself) are deliberately absent —
// the simulators guarantee bit-identical artifacts for any value of
// them, so a sharded 8-job run and a serial run of one experiment carry
// the same identity.
//
// The text is itself a valid spec, and parsing it back and validating
// yields a spec whose Canonical is byte-identical (the fixpoint the
// fuzzer enforces), so a manifest can embed it and cmd/reproduce can
// re-run it directly.
func (s *Spec) Canonical() []byte {
	c := make([]byte, 0, 512)
	section, on := "", bitOf(s.Run.Command)
	for i := range fields {
		f := &fields[i]
		if f.knob || f.cmds&on == 0 {
			continue
		}
		if f.section != section {
			if section != "" {
				c = append(c, '\n')
			}
			section = f.section
			c = append(c, '[')
			c = append(c, section...)
			c = append(c, "]\n"...)
		}
		c = f.render(c, s)
	}
	return c
}

// Hash is the hex SHA-256 of Canonical: the spec identity recorded in
// manifests and compared by cmd/reproduce. Since it excludes the shard,
// every shard of a run and the unsharded run over their result cache
// share one identity.
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// render appends f's `key = value` line for s in the forms the parser
// reads back: strings quoted as %q does, integers and booleans as %d
// and %v do, floats in their shortest round-trip form (so zero renders
// as "0"), and arrays as [1, 2, 4].
func (f *field) render(c []byte, s *Spec) []byte {
	c = append(c, f.key...)
	c = append(c, " = "...)
	switch p := f.ptr(s).(type) {
	case *string:
		c = strconv.AppendQuote(c, *p)
	case *int:
		c = strconv.AppendInt(c, int64(*p), 10)
	case *uint64:
		c = strconv.AppendUint(c, *p, 10)
	case *float64:
		c = strconv.AppendFloat(c, *p, 'g', -1, 64)
	case *bool:
		c = strconv.AppendBool(c, *p)
	case *[]int:
		c = append(c, '[')
		for i, v := range *p {
			if i > 0 {
				c = append(c, ", "...)
			}
			c = strconv.AppendInt(c, int64(v), 10)
		}
		c = append(c, ']')
	}
	return append(c, '\n')
}
