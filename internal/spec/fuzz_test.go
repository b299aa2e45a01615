package spec

import (
	"bytes"
	"testing"
)

// fuzzSeeds extend validSpecs into FuzzSpecParse's seed corpus.
var fuzzSeeds = []string{
	"[run]\ncommand = \"figures\"\nscale = \"paper\"\n[figures]\nall = true\nprocs = [1, 2, 4, 8]\n[output]\nreport = \"r.json\"\n",
	"[run]\ncommand = \"profile\"\nseed = 18446744073709551615\n[profile]\nsample = 1e3\ntimeline = 0.5\n",
	"# comment\n[figures]\nfig = 1 # trailing\nsizes = []\n",
	"[run\ncommand=\"x\"\nprocs=[1,",
}

// FuzzSpecParse feeds arbitrary bytes through Parse/Validate and
// enforces the package's safety contract: no panics, allocation bounded
// by the input caps, and for every spec that parses and validates,
// canonical rendering is a fixpoint (parse→render→parse→render is
// byte-stable) so manifests can embed the canonical text, and equals the
// fmt rendering it replaced, so no spec hash moves.
func FuzzSpecParse(f *testing.F) {
	for _, s := range validSpecs {
		f.Add([]byte(s))
	}
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		c1 := s.Canonical()
		if want := canonicalFmt(s); !bytes.Equal(c1, want) {
			t.Fatalf("Canonical differs from the fmt rendering:\n--- got\n%s--- want\n%s", c1, want)
		}
		s2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical text does not reparse: %v\n%s", err, c1)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("canonical text does not revalidate: %v\n%s", err, c1)
		}
		if c2 := s2.Canonical(); !bytes.Equal(c1, c2) {
			t.Fatalf("canonical is not a fixpoint:\n--- first\n%s--- second\n%s", c1, c2)
		}
		if s.Hash() != s2.Hash() {
			t.Fatal("hash differs across the fixpoint")
		}
	})
}
