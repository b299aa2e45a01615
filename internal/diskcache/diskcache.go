// Package diskcache is a content-addressed artifact store shared by
// concurrent processes: the persistent half of the experiment input
// cache (internal/sweep.Cache). Sweep shards and repeated runs use it
// so a workload graph, list, or verification reference is generated
// once per content key and then read back by every process that asks
// for the same key, instead of being rebuilt from scratch per process
// per run.
//
// The store is a directory of entry files. An entry's filename is the
// hex SHA-256 of its schema string and caller key, so equal keys from
// any process land on the same file and the key space needs no index.
// The schema string salts every address: bumping it (because a
// generator or reference builder changed meaning) strands the old
// entries, which simply stop being addressed and can be deleted at
// leisure — stale data self-invalidates without a migration step.
//
// Concurrency needs no locks:
//
//   - Writers are atomic. Put streams into a private temp file in the
//     store directory and renames it over the final name. rename(2) is
//     atomic on POSIX, so a reader sees either no file, the complete
//     old entry, or the complete new entry — never a torn write. Two
//     processes putting the same key race benignly: both write valid
//     identical content and the last rename wins.
//   - Readers validate instead of locking. Every entry carries its
//     schema, its full key, and a checksum of the payload; Get re-reads
//     and verifies all three and treats any mismatch — truncation, a
//     foreign file, bit rot, a schema from another version — as a plain
//     miss. The caller then rebuilds and overwrites, so a corrupt entry
//     costs one rebuild, not an error.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// magic opens every entry file; a file without it is not ours.
var magic = []byte("PGCACHE1")

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// hosts we run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxMetaLen bounds the schema and key fields read back from disk, so a
// corrupt length prefix cannot ask for an absurd allocation.
const maxMetaLen = 1 << 20

// Store is one cache directory opened under one schema string. It is
// safe for concurrent use by any number of goroutines and processes.
type Store struct {
	dir      string
	schema   string
	maxBytes int64 // 0 = unbounded; set once via SetMaxBytes before use

	hits         atomic.Int64
	misses       atomic.Int64
	puts         atomic.Int64
	rejects      atomic.Int64
	prunes       atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	pruneMu    sync.Mutex
	approxSize atomic.Int64 // directory bytes as of the last scan plus later puts; -1 = never scanned
	scans      atomic.Int64 // directory scans prune has made
}

// Stats counts this handle's cache traffic (not the directory's —
// other processes keep their own counters).
type Stats struct {
	Hits         int64 `json:"hits"`          // Get found a valid entry
	Misses       int64 `json:"misses"`        // Get found nothing addressed by the key
	Puts         int64 `json:"puts"`          // entries written
	Rejects      int64 `json:"rejects"`       // Get found a file but rejected it (truncated, corrupt, or foreign)
	Prunes       int64 `json:"prunes"`        // entries removed by SetMaxBytes pruning
	BytesRead    int64 `json:"bytes_read"`    // entry bytes read back on hits
	BytesWritten int64 `json:"bytes_written"` // entry bytes written by puts
}

// Open creates (if needed) and returns the store rooted at dir, with
// every entry address salted by schema. Callers version the schema
// string to the semantics of what they store — change the meaning of
// the bytes, bump the schema, and old entries silently stop matching.
func Open(dir, schema string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("diskcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	s := &Store{dir: dir, schema: schema}
	s.approxSize.Store(-1)
	return s, nil
}

// SetMaxBytes installs a best-effort size cap on the store's directory:
// when a Put pushes the directory (all entry files, whatever schema
// wrote them) past n bytes, the least-recently-used entries are removed
// until it is back under pruneLowWater of n, never touching the entry
// just written — so a full store rescans once per several puts, not on
// every one. Recency is approximated by file mtime: a Put stamps it and
// a valid Get refreshes it (see Get's throttle), so pruning walks
// oldest-mtime-first and a frequently-hit entry outlives a cold one
// that was written after it.
// Zero means unbounded. Call once after Open, before the store is
// shared; the cap is advisory — a single entry larger than n, or
// concurrent writers in other processes, can leave the directory
// temporarily over it.
func (s *Store) SetMaxBytes(n int64) { s.maxBytes = n }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Schema returns the schema string the store was opened under.
func (s *Store) Schema() string { return s.schema }

// path addresses key: hex(SHA-256(schema, key)) under the store root.
// The schema and key are length-framed into the hash so no two
// (schema, key) pairs can collide by concatenation.
func (s *Store) path(key string) string {
	h := sha256.New()
	var frame [8]byte
	binary.LittleEndian.PutUint64(frame[:], uint64(len(s.schema)))
	h.Write(frame[:])
	io.WriteString(h, s.schema)
	binary.LittleEndian.PutUint64(frame[:], uint64(len(key)))
	h.Write(frame[:])
	io.WriteString(h, key)
	return filepath.Join(s.dir, hex.EncodeToString(h.Sum(nil))+".pgc")
}

// mtimeRefreshInterval throttles Get's mtime refresh: an entry whose
// mtime is already this recent is left alone, so a warm sweep hitting
// one entry thousands of times pays at most one utimensat per entry per
// interval instead of a syscall per hit.
const mtimeRefreshInterval = time.Minute

// Get returns the payload stored under key, or ok=false on a miss. A
// file that exists but fails validation — wrong magic, wrong schema or
// key, truncated, or failing its checksum — is reported as a miss (and
// counted as a reject), since the contract is "rebuild on anything
// suspect".
//
// A valid hit refreshes the entry's mtime (best-effort, throttled by
// mtimeRefreshInterval) so SetMaxBytes pruning approximates LRU:
// without the refresh, "oldest mtime first" is FIFO by write time and
// evicts the hottest entries before cold ones.
func (s *Store) Get(key string) ([]byte, bool) {
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(raw, s.schema, key)
	if err != nil {
		s.rejects.Add(1)
		return nil, false
	}
	s.touch(path)
	s.hits.Add(1)
	s.bytesRead.Add(int64(len(raw)))
	return payload, true
}

// touch marks the entry at path recently used. Best-effort: the entry
// may have been pruned or replaced since it was read, and a store on a
// read-only filesystem cannot stamp at all — every failure is ignored,
// costing at worst one eviction-order inaccuracy.
func (s *Store) touch(path string) {
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	if now := time.Now(); now.Sub(info.ModTime()) >= mtimeRefreshInterval {
		os.Chtimes(path, now, now)
	}
}

// Put stores payload under key, atomically: concurrent readers of the
// same key see the prior entry (or a miss) until the new one is
// complete. Errors are real I/O failures (permissions, disk full); a
// best-effort caller may ignore them, losing only cache warmth.
func (s *Store) Put(key string, payload []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	entry := encodeEntry(s.schema, key, payload)
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	dst := s.path(key)
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	s.puts.Add(1)
	s.bytesWritten.Add(int64(len(entry)))
	if s.maxBytes > 0 {
		if sz := s.approxSize.Add(int64(len(entry))); sz-int64(len(entry)) < 0 || sz > s.maxBytes {
			s.prune(dst)
		}
	}
	return nil
}

// pruneLowWater is the fraction of the cap a prune trims the directory
// down to. Trimming to exactly the cap would leave a full store one Put
// from its next scan; the headroom spaces the scans out.
const pruneLowWater = 0.9

// staleTempAge is how old a ".put-*" temp file must be before prune
// deletes it. Put removes its own temp file on every path it returns
// through, so an old one was left by a killed writer; the age spares
// puts still in flight in other processes.
const staleTempAge = time.Hour

// prune scans the directory and removes entry files oldest-mtime-first
// — approximate LRU, since Get refreshes the mtime of entries it hits —
// until the total fits under pruneLowWater of maxBytes, sparing keep
// (the entry whose Put triggered the scan). The same scan deletes stale
// temp files, which the cap never counts. Only Put calls prune; Open
// and Get never walk the directory. All failures are swallowed: the cap
// is a housekeeping promise, not a correctness one.
func (s *Store) prune(keep string) {
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	s.scans.Add(1)
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		isTemp := strings.HasPrefix(name, ".put-")
		if !isTemp && !strings.HasSuffix(name, ".pgc") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		if isTemp {
			if time.Since(info.ModTime()) > staleTempAge {
				os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		files = append(files, entry{filepath.Join(s.dir, name), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	lowWater := int64(float64(s.maxBytes) * pruneLowWater)
	for _, f := range files {
		if total <= lowWater {
			break
		}
		if f.path == keep {
			continue
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			s.prunes.Add(1)
		}
	}
	s.approxSize.Store(total)
}

// Stats returns this handle's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Rejects:      s.rejects.Load(),
		Prunes:       s.prunes.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// encodeEntry frames an entry: magic, then length-prefixed schema and
// key (so Get can verify it is reading what it asked for, not a hash
// collision or a foreign file), then the checksummed payload.
func encodeEntry(schema, key string, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+4+len(schema)+4+len(key)+8+4+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(schema)))
	buf = append(buf, schema...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	return buf
}

// decodeEntry validates raw against the expected schema and key and
// returns the payload. Every failure mode folds into one error: the
// caller treats them all as "rebuild".
func decodeEntry(raw []byte, schema, key string) ([]byte, error) {
	rest, ok := bytes.CutPrefix(raw, magic)
	if !ok {
		return nil, errors.New("diskcache: bad magic")
	}
	gotSchema, rest, err := cutString(rest)
	if err != nil || gotSchema != schema {
		return nil, errors.New("diskcache: schema mismatch")
	}
	gotKey, rest, err := cutString(rest)
	if err != nil || gotKey != key {
		return nil, errors.New("diskcache: key mismatch")
	}
	if len(rest) < 12 {
		return nil, errors.New("diskcache: truncated header")
	}
	n := binary.LittleEndian.Uint64(rest)
	sum := binary.LittleEndian.Uint32(rest[8:])
	payload := rest[12:]
	if uint64(len(payload)) != n {
		return nil, errors.New("diskcache: truncated payload")
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, errors.New("diskcache: checksum mismatch")
	}
	return payload, nil
}

// cutString reads one uint32-length-prefixed string off the front of b.
func cutString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, errors.New("diskcache: truncated length")
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxMetaLen || uint64(len(b)-4) < uint64(n) {
		return "", nil, errors.New("diskcache: bad length")
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}
