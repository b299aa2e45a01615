package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestPruneIsLRUNotFIFO pins the approximate-LRU contract: a Get on an
// old entry refreshes its recency, so a later overflow evicts the
// un-hit middle entry, not the hit one. On the pre-fix code — Get
// leaving mtime untouched — pruning is FIFO by write time and evicts
// the hit entry "a" (the oldest write), failing this test.
func TestPruneIsLRUNotFIFO(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1024)
	entrySize := int64(len(encodeEntry("v1", "a", payload)))
	// Three and a half entries: the fourth Put overflows, and one
	// eviction brings the directory under the low-water mark.
	s.SetMaxBytes(3*entrySize + entrySize/2)

	// Three entries written oldest-first, backdated well past the
	// refresh throttle so the Get below must restamp.
	base := time.Now().Add(-3 * time.Hour)
	for i, key := range []string{"a", "b", "c"} {
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.path(key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Hit the oldest-written entry: it is now the most recently used.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("lost entry a before the overflow")
	}
	if info, err := os.Stat(s.path("a")); err != nil {
		t.Fatal(err)
	} else if time.Since(info.ModTime()) > time.Hour {
		t.Fatal("Get did not refresh the hit entry's mtime")
	}

	// Overflow: one entry must go, and LRU says it is "b" — the oldest
	// mtime now that "a" has been touched.
	if err := s.Put("d", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("b"); ok {
		t.Error("un-hit entry b survived the overflow")
	}
	for _, key := range []string{"a", "c", "d"} {
		if _, ok := s.Get(key); !ok {
			t.Errorf("entry %s was evicted; pruning is not LRU", key)
		}
	}
	if st := s.Stats(); st.Prunes != 1 {
		t.Errorf("Stats.Prunes = %d, want 1", st.Prunes)
	}
}

// TestGetRefreshThrottle: an entry with a fresh mtime is not restamped
// on every hit — the refresh is a per-interval syscall, not a per-hit
// one.
func TestGetRefreshThrottle(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	recent := time.Now().Add(-mtimeRefreshInterval / 2)
	if err := os.Chtimes(s.path("k"), recent, recent); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("miss on a valid entry")
	}
	info, err := os.Stat(s.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(recent) {
		t.Errorf("mtime restamped inside the refresh interval: %v -> %v", recent, info.ModTime())
	}
}

// TestPruneConcurrentGet races readers against puts that keep the
// directory overflowing: every Get must return either a miss or the
// exact payload for its key — a concurrent eviction or restamp must
// never surface torn data. Run under -race, this also exercises the
// touch path against prune's removal.
func TestPruneConcurrentGet(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 512)
	entrySize := int64(len(encodeEntry("v1", "hot0", payload)))
	s.SetMaxBytes(4 * entrySize)

	hot := make([]string, 4)
	old := time.Now().Add(-2 * time.Hour)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
		if err := s.Put(hot[i], payload); err != nil {
			t.Fatal(err)
		}
		// Backdate so every hit takes the restamp path, not the
		// throttle's early return.
		os.Chtimes(s.path(hot[i]), old, old)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, key := range hot {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("Get(%s) returned wrong payload under concurrent pruning", key)
					return
				}
			}
		}(key)
	}
	for i := 0; i < 64; i++ {
		if err := s.Put(fmt.Sprintf("cold%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFullStorePutsScanRarely: once a capped store is full, a prune
// trims it to the low-water mark, so the puts that follow fit in the
// headroom and only every few puts rescan the directory. Trimming to
// exactly the cap rescans on every put.
func TestFullStorePutsScanRarely(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("z"), 64)
	entrySize := int64(len(encodeEntry("v1", "k000", payload)))
	s.SetMaxBytes(40 * entrySize)
	const puts = 200
	for i := 0; i < puts; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.scans.Load(); got*4 > puts {
		t.Errorf("%d puts into a full store made %d directory scans; want far fewer", puts, got)
	}
	if _, ok := s.Get(fmt.Sprintf("k%03d", puts-1)); !ok {
		t.Error("the last entry written was evicted")
	}
}

// TestPruneCollectsStaleTempFiles: a temp file a killed writer left
// behind is deleted by the next prune once it is old enough, while a
// fresh one — possibly another process's Put in flight — is left
// alone. Open and Get never scan, so neither touches them.
func TestPruneCollectsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".put-stale")
	fresh := filepath.Join(dir, ".put-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	s.SetMaxBytes(1 << 20)
	s.Get("absent")
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("Open or Get touched the directory: %v", err)
	}
	if s.scans.Load() != 0 {
		t.Fatalf("Open or Get scanned the directory %d times", s.scans.Load())
	}

	// The store's first Put scans it.
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived a prune scan: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file was removed: %v", err)
	}
}
