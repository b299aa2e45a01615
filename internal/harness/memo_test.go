package harness

import (
	"bytes"
	"strings"
	"testing"

	"pargraph/internal/diskcache"
	"pargraph/internal/sweep"
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
			err := e.RunCell(func(c *Cell) error {
				_, err := Memo(c, "memo-test/"+tc.name, tc.listed, func() (float64, error) {
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

// TestWarmCacheSkipsGeneration: with a persistent input store attached,
// a second (fresh-process-equivalent) run reads every input back
// instead of regenerating — zero puts, plenty of hits — and emits
// exactly the same report.
func TestWarmCacheSkipsGeneration(t *testing.T) {
	dir := t.TempDir()
	params := Fig2Params{N: 1 << 10, EdgeFactors: []int{4, 8}, Procs: []int{1, 2}, Seed: 0x22}
	runFig2 := func(store *diskcache.Store) []byte {
		res, err := (&Env{CacheStore: store}).RunFig2(params)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (&Report{Fig2: res}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cold, err := diskcache.Open(dir, InputSchema)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := runFig2(cold)
	if st := cold.Stats(); st.Puts == 0 {
		t.Fatalf("cold run persisted nothing: %+v", st)
	}

	warm, err := diskcache.Open(dir, InputSchema)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON := runFig2(warm)
	st := warm.Stats()
	if st.Puts != 0 {
		t.Fatalf("warm run regenerated %d inputs: %+v", st.Puts, st)
	}
	if st.Hits == 0 {
		t.Fatalf("warm run never hit the store: %+v", st)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("warm-cache report differs from cold")
	}
}

// TestExprKeyHasOneEncoding: E7 and the treecon profile cache one Go
// type under sweep.ExprKey. A profile that reads the expression E7
// stored therefore records the digest a profile on a fresh store
// computes; two types would differ in the type name gob writes, and a
// manifest from the shared cache would not reproduce.
func TestExprKeyHasOneEncoding(t *testing.T) {
	const leaves, seed = 256, 7
	key := sweep.ExprKey(leaves, seed+leaves)
	params := ProfileParams{Kernel: "treecon", Machine: "mta", N: leaves, Procs: 2, Seed: seed + leaves}
	open := func() *diskcache.Store {
		store, err := diskcache.Open(t.TempDir(), InputSchema)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	// profileDigest runs the profile over store and returns the digest
	// it recorded for the expression.
	profileDigest := func(store *diskcache.Store) sweep.Digest {
		var got []sweep.Digest
		e := &Env{CacheStore: store, InputHook: func(d sweep.Digest) {
			if d.Key == key {
				got = append(got, d)
			}
		}}
		if _, err := e.RunProfile(params); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("profile recorded %d digests under %s, want 1", len(got), key)
		}
		return got[0]
	}

	shared := open()
	if _, err := (&Env{CacheStore: shared}).RunTreeEval([]int{leaves}, 2, seed); err != nil {
		t.Fatal(err)
	}
	hits := shared.Stats().Hits
	afterE7 := profileDigest(shared)
	if shared.Stats().Hits == hits {
		t.Fatal("the profile did not read the expression E7 stored")
	}
	if fresh := profileDigest(open()); afterE7 != fresh {
		t.Errorf("%s after E7 = %+v, on a fresh store = %+v", key, afterE7, fresh)
	}
}
