package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"pargraph/internal/diskcache"
	"pargraph/internal/list"
)

func openStore(t *testing.T, dir string) *diskcache.Store {
	t.Helper()
	s, err := diskcache.Open(dir, "sweep-test-v1")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

type payload struct {
	Name string
	Vals []int64
}

func buildPayload(i int) payload {
	vals := make([]int64, 64)
	for k := range vals {
		vals[k] = int64(i*1000 + k)
	}
	return payload{Name: fmt.Sprintf("payload-%d", i), Vals: vals}
}

// TestDiskBackedGetAs is the cold/warm contract: a fresh Cache over a
// warm store decodes every value instead of rebuilding, and the decoded
// values equal the built ones.
func TestDiskBackedGetAs(t *testing.T) {
	dir := t.TempDir()
	const keys = 5

	var builds atomic.Int64
	get := func(c *Cache, i int) payload {
		v, err := GetAs(c, fmt.Sprintf("key/%d", i), func() (payload, error) {
			builds.Add(1)
			return buildPayload(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	cold := &Cache{Disk: openStore(t, dir)}
	var want []payload
	for i := 0; i < keys; i++ {
		want = append(want, get(cold, i))
	}
	if got := builds.Load(); got != keys {
		t.Fatalf("cold run built %d values, want %d", got, keys)
	}
	if st := cold.Disk.Stats(); st.Puts != keys || st.Hits != 0 {
		t.Fatalf("cold store stats = %+v", st)
	}

	warm := &Cache{Disk: openStore(t, dir)}
	for i := 0; i < keys; i++ {
		got := get(warm, i)
		if got.Name != want[i].Name || len(got.Vals) != len(want[i].Vals) {
			t.Fatalf("warm value %d differs: %+v", i, got)
		}
		for k := range got.Vals {
			if got.Vals[k] != want[i].Vals[k] {
				t.Fatalf("warm value %d differs at element %d", i, k)
			}
		}
	}
	if got := builds.Load(); got != keys {
		t.Fatalf("warm run rebuilt: %d total builds, want still %d", got, keys)
	}
	if st := warm.Disk.Stats(); st.Hits != keys || st.Puts != 0 {
		t.Fatalf("warm store stats = %+v", st)
	}
}

// TestDiskBackedGetAsTypeMismatch: an entry that does not decode as the
// requested type falls back to build and overwrites.
func TestDiskBackedGetAsTypeMismatch(t *testing.T) {
	dir := t.TempDir()
	c1 := &Cache{Disk: openStore(t, dir)}
	if _, err := GetAs(c1, "k", func() (string, error) { return "a string", nil }); err != nil {
		t.Fatal(err)
	}

	c2 := &Cache{Disk: openStore(t, dir)}
	built := false
	v, err := GetAs(c2, "k", func() (payload, error) {
		built = true
		return buildPayload(1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !built || v.Name != "payload-1" {
		t.Fatalf("mismatched entry was not rebuilt: built=%v, v=%+v", built, v)
	}
	// And the overwrite sticks: a third cache decodes the payload.
	c3 := &Cache{Disk: openStore(t, dir)}
	built = false
	if v, err := GetAs(c3, "k", func() (payload, error) { built = true; return payload{}, nil }); err != nil || built || v.Name != "payload-1" {
		t.Fatalf("overwritten entry not served: built=%v, err=%v, v=%+v", built, err, v)
	}
}

// TestDiskBackedBuildErrorNotCached: a failed build stores nothing.
func TestDiskBackedBuildErrorNotCached(t *testing.T) {
	dir := t.TempDir()
	c := &Cache{Disk: openStore(t, dir)}
	boom := errors.New("boom")
	if _, err := GetAs(c, "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Disk.Stats(); st.Puts != 0 {
		t.Fatalf("failed build was persisted: %+v", st)
	}
}

func TestShardOwns(t *testing.T) {
	cases := []struct {
		s    Shard
		owns []int
	}{
		{Shard{}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{Shard{Index: 0, Count: 1}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{Shard{Index: 0, Count: 2}, []int{0, 2, 4, 6, 8, 10}},
		{Shard{Index: 1, Count: 2}, []int{1, 3, 5, 7, 9, 11}},
		{Shard{Index: 3, Count: 4}, []int{3, 7, 11}},
	}
	for _, tc := range cases {
		owned := map[int]bool{}
		for _, i := range tc.owns {
			owned[i] = true
		}
		for i := 0; i < 12; i++ {
			if got := tc.s.Owns(i); got != owned[i] {
				t.Errorf("%s.Owns(%d) = %v", tc.s, i, got)
			}
		}
	}
	// Every cell has exactly one owner for any N.
	for _, count := range []int{2, 3, 4, 7} {
		for i := 0; i < 40; i++ {
			owners := 0
			for idx := 0; idx < count; idx++ {
				if (Shard{Index: idx, Count: count}).Owns(i) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("cell %d has %d owners at count %d", i, owners, count)
			}
		}
	}
}

// TestRunCtxCancellation: cancelling mid-run stops dispatch promptly —
// later cells never run — and the run reports the cancellation cause.
func TestRunCtxCancellation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			const n = 1000
			var ran atomic.Int64
			err := RunCtx(ctx, n, jobs, func(i int) error {
				if ran.Add(1) == 3 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// At most the in-flight cells finish after the cancel; with
			// the dispatch counter drained we would see all n.
			if got := ran.Load(); got >= n/2 {
				t.Fatalf("%d of %d cells ran after cancellation", got, n)
			}
		})
	}
}

// TestRunCtxCellErrorBeatsCancellation: a real cell failure is more
// informative than "context canceled" and wins the report.
func TestRunCtxCellErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("cell failed")
	err := RunCtx(ctx, 100, 1, func(i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cell error", err)
	}
}

// TestRunCtxPreCancelled: a context cancelled before the run starts
// dispatches nothing.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunCtx(ctx, 10, 1, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("err = %v, ran = %v", err, ran)
	}
}

// BenchmarkWarmVsColdInput measures the disk cache's fast path on a
// real workload input: loading a 1M-node random-layout list back from a
// warm store versus generating it. The harness-level claim (warm reruns
// skip input generation) reduces to this ratio plus the zero-rebuild
// assertions in internal/harness; the warm side must win or the cache
// is pure overhead.
func BenchmarkWarmVsColdInput(b *testing.B) {
	build := func() (*list.List, error) {
		return list.New(1<<20, list.Random, 1), nil
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := &Cache{}
			if _, err := GetAs(c, "bench", build); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := diskcache.Open(b.TempDir(), "bench-v1")
		if err != nil {
			b.Fatal(err)
		}
		prime := &Cache{Disk: store}
		if _, err := GetAs(prime, "bench", build); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := &Cache{Disk: store}
			if _, err := GetAs(c, "bench", func() (*list.List, error) {
				b.Fatal("warm run rebuilt the input")
				return nil, nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBinaryRoundTripThroughDisk pins the BinaryMarshaler fast path for
// a pointer-typed value: a fresh cache over a warm store hands back an
// equal list without rebuilding.
func TestBinaryRoundTripThroughDisk(t *testing.T) {
	dir := t.TempDir()
	orig := list.New(512, list.Random, 7)
	c1 := &Cache{Disk: openStore(t, dir)}
	if _, err := GetAs(c1, "list", func() (*list.List, error) { return orig, nil }); err != nil {
		t.Fatal(err)
	}

	c2 := &Cache{Disk: openStore(t, dir)}
	got, err := GetAs(c2, "list", func() (*list.List, error) {
		t.Fatal("warm read rebuilt")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Head != orig.Head || len(got.Succ) != len(orig.Succ) {
		t.Fatalf("round trip mismatch: head %d vs %d, len %d vs %d", got.Head, orig.Head, len(got.Succ), len(orig.Succ))
	}
	for i := range got.Succ {
		if got.Succ[i] != orig.Succ[i] {
			t.Fatalf("round trip mismatch at node %d", i)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDigestsAcrossTiers: the digest a Cache keeps for a key is the
// SHA-256 of the value's serialized bytes — the same whether the value
// was built or read back from disk — and the hook sees exactly that
// digest, once per key. A cache that never serializes keeps none.
func TestDigestsAcrossTiers(t *testing.T) {
	dir := t.TempDir()
	build := func() (*list.List, error) { return list.New(256, list.Random, 3), nil }
	data, ok := encodeValue(list.New(256, list.Random, 3))
	if !ok {
		t.Fatal("list does not serialize")
	}
	want := digestOf("k", data)

	var seen []Digest
	hook := func(d Digest) { seen = append(seen, d) }
	for i, c := range []*Cache{
		{Digests: true},                          // memory only
		{Disk: openStore(t, dir), Hook: hook},    // cold: build, then put
		{Disk: openStore(t, dir), Hook: hook},    // warm: disk hit
		{Disk: openStore(t, dir), Digests: true}, // warm, no hook
	} {
		for j := 0; j < 2; j++ { // the second Get is a memory hit
			if _, err := GetAs(c, "k", build); err != nil {
				t.Fatal(err)
			}
		}
		if got, ok := c.Digest("k"); !ok || got != want {
			t.Errorf("cache %d: Digest = %+v, %v; want %+v", i, got, ok, want)
		}
	}
	if len(seen) != 2 || seen[0] != want || seen[1] != want {
		t.Errorf("hook saw %+v, want %+v twice", seen, want)
	}

	bare := &Cache{}
	if _, err := GetAs(bare, "k", build); err != nil {
		t.Fatal(err)
	}
	if _, ok := bare.Digest("k"); ok {
		t.Error("a cache that never serializes reported a digest")
	}
	if _, ok := bare.Digest("absent"); ok {
		t.Error("an unresolved key reported a digest")
	}
}
