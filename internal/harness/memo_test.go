package harness

import (
	"strings"
	"testing"

	"pargraph/internal/diskcache"
)

// TestMemoChecksListedInputs: a computed cell must resolve exactly the
// inputs it lists. Reading an unlisted input, or listing one it never
// reads, fails the cell — otherwise a warm replay of its result would
// record a different input set than the run that computed it.
func TestMemoChecksListedInputs(t *testing.T) {
	store, err := diskcache.Open(t.TempDir(), ResultSchema)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		listed   []string
		resolves []string
		wantErr  string
	}{
		{"exact", []string{"a", "b"}, []string{"b", "a", "b"}, ""},
		{"unlisted", []string{"a"}, []string{"a", "b"}, `lists inputs ["a"] but resolved ["a" "b"]`},
		{"unresolved", []string{"a", "b"}, []string{"a"}, `lists inputs ["a" "b"] but resolved ["a"]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &Env{ResultStore: store}
			_, err := e.runSweep(1, e.stdOpts(), func(_ int, c *Cell) error {
				_, err := Memo(c, "memo-test/"+tc.name, tc.listed, appendF64, consumeF64, func() (float64, error) {
					for _, k := range tc.resolves {
						cached(c, k, func() int { return len(k) })
					}
					return 1, nil
				})
				return err
			})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %s", err, tc.wantErr)
			}
		})
	}
}
