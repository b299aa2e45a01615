package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"

	"pargraph/internal/diskcache"
)

// Cache is a content-keyed, single-flight store for the read-only
// inputs a sweep's cells share: workload graphs, lists, and expression
// trees, plus derived artifacts like verification references. The first
// cell to ask for a key runs the build on its own goroutine; concurrent
// cells asking for the same key block until that one build finishes and
// then share the result. Keys are caller-chosen content strings — every
// parameter the build depends on (generator, size, seed) must appear in
// the key, since equal keys share one value.
//
// The zero Cache is ready to use. A Cache is scoped to one sweep so its
// inputs die with the sweep instead of accumulating across experiments.
// With Disk attached (set before the sweep starts), values additionally
// persist across sweeps, runs, and processes: see GetAs.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	// Disk, when non-nil, backs the in-memory cache with a persistent
	// content-addressed store: GetAs consults it before building and
	// writes freshly built values back, so shard processes and repeated
	// runs share one generation of each input. Set it before the first
	// Get; nil keeps the cache memory-only.
	Disk *diskcache.Store

	// Hook, when non-nil, observes every input GetAs resolves — once
	// per key, with the digest of the value's serialized bytes (the
	// same encoding the disk tier stores), whether the value came from
	// a build or a disk hit. Reproducibility manifests hang off this,
	// so a run records the exact content of every input it consumed.
	// Set it before the first Get, like Disk. With a hook attached, a
	// value that cannot be serialized is an error rather than a silent
	// gap in the record.
	Hook func(Digest)

	// Digests makes GetAs serialize and hash every value it resolves
	// even with neither Disk nor Hook attached, so Digest can report
	// it; with either attached the bytes are in hand anyway. Result
	// memoization needs this: it stores the digests of a result's
	// inputs beside the result. Set it before the first Get.
	Digests bool

	// Flight, when non-nil alongside Disk, joins this Cache to a
	// process-wide single-flight group (see FlightFor): before building
	// a key that missed both this Cache and the disk, GetAs waits for
	// any other Cache in the group already building it and then re-reads
	// the disk, so concurrent runs sharing one cache directory generate
	// each input once between them. Set it before the first Get.
	Flight *Flight
}

// Digest is the content record of one resolved input: its key and the
// SHA-256 (hex) and length of its serialized bytes. Manifests record
// inputs in exactly this form, and memoized results carry the digests
// of the inputs they were computed from.
type Digest struct {
	Key    string
	SHA256 string
	Bytes  int64
}

// digestOf hashes one input's serialized bytes.
func digestOf(key string, data []byte) Digest {
	sum := sha256.Sum256(data)
	return Digest{Key: key, SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(data))}
}

type cacheEntry struct {
	done   chan struct{}
	val    any
	digest Digest // zero unless the value was serialized
	err    error
}

// Get returns the value for key, running build at most once per key
// across all concurrent callers. A panic inside build is captured and
// returned as an error to the builder and every waiter, so one bad
// input fails the cells that need it rather than the process.
func (c *Cache) Get(key string, build func() (any, error)) (any, error) {
	e := c.resolve(key, func(e *cacheEntry) { e.val, e.err = build() })
	return e.val, e.err
}

// resolve is Get's single flight: the first caller for key runs fill
// on the fresh entry, everyone else waits for it to finish.
func (c *Cache) resolve(key string, fill func(*cacheEntry)) *cacheEntry {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
	}
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	func() {
		defer func() {
			if v := recover(); v != nil {
				e.val, e.err = nil, fmt.Errorf("sweep: building input %q panicked: %v", key, v)
			}
			close(e.done)
		}()
		fill(e)
	}()
	return e
}

// Digest returns the digest of the value resolved under key. ok is
// false while the key is unresolved or still building, when its build
// failed, and when the value was never serialized (no Disk, Hook or
// Digests).
func (c *Cache) Digest(key string) (Digest, bool) {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		return Digest{}, false
	}
	select {
	case <-e.done:
	default:
		return Digest{}, false
	}
	return e.digest, e.err == nil && e.digest.Key != ""
}

// Len reports how many keys the cache holds, including in-flight
// builds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// GetAs is the typed wrapper over Cache.Get: it builds (or waits for)
// the value under key and asserts it to T. Mixing types under one key
// is a programming error and panics on the assertion.
//
// With c.Disk attached, the single-flight build first tries the
// persistent store: a valid entry is decoded instead of rebuilt (the
// warm fast path), and anything suspect — missing, truncated, corrupt,
// written under another schema, or not decodable as T — falls back to
// build, whose result is then written back best-effort. Cache warmth is
// never load-bearing: a failed disk read or write costs one rebuild or
// one re-generation on the next run, not an error.
//
// Whenever the value is serialized (Disk, Hook or Digests set), GetAs
// hashes its bytes exactly once, where they are already in hand — as
// read on a disk hit, as encoded after a build — and keeps the digest
// for Digest and the Hook.
//
// Types that implement encoding.BinaryMarshaler/BinaryUnmarshaler (as
// the big workload types do, via internal/binenc) persist through those
// methods; everything else goes through gob. The warm path must beat
// regeneration to be worth anything, and gob's per-element reflection
// loses that race on multi-megabyte slices by an order of magnitude.
func GetAs[T any](c *Cache, key string, build func() (T, error)) (T, error) {
	e := c.resolve(key, func(e *cacheEntry) {
		disk, hook := c.Disk, c.Hook
		if disk == nil && hook == nil && !c.Digests {
			e.val, e.err = build()
			return
		}
		// found records a value together with its serialized bytes:
		// hashed here, once, whichever tier supplied them.
		found := func(v T, data []byte) {
			e.val, e.digest = v, digestOf(key, data)
			if hook != nil {
				hook(e.digest)
			}
		}
		if disk != nil {
			if data, ok := disk.Get(key); ok {
				if v, ok := decodeValue[T](data); ok {
					found(v, data)
					return
				}
			}
			if c.Flight != nil {
				// Cross-Cache single flight: wait out any in-progress
				// build of this key elsewhere in the process, re-reading
				// the disk after each leader finishes. Becoming the
				// leader falls through to build below; end always runs,
				// even if the build panics, so waiters never hang. The
				// re-read under leadership closes the race where another
				// leader ran to completion between our first disk miss
				// and begin — a failed disk probe costs microseconds
				// against the build it saves.
				for {
					leader, done := c.Flight.begin(key)
					if leader {
						break
					}
					<-done
				}
				defer c.Flight.end(key)
				if data, ok := disk.Get(key); ok {
					if v, ok := decodeValue[T](data); ok {
						found(v, data)
						return
					}
				}
			}
		}
		v, err := build()
		if err != nil {
			e.err = err
			return
		}
		data, ok := encodeValue(v)
		if !ok {
			e.val = v
			if hook != nil || c.Digests {
				e.err = fmt.Errorf("sweep: input %q is not serializable, so the run's input record would be incomplete", key)
			}
			return
		}
		if disk != nil {
			disk.Put(key, data)
		}
		found(v, data)
	})
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	return e.val.(T), nil
}

var binaryUnmarshalerType = reflect.TypeFor[encoding.BinaryUnmarshaler]()

// encodeValue serializes v for the persistent store: the type's own
// MarshalBinary when it has one (checked on the value and its address,
// so value types with pointer-receiver marshalers qualify too), gob
// otherwise.
func encodeValue[T any](v T) ([]byte, bool) {
	m, ok := any(v).(encoding.BinaryMarshaler)
	if !ok {
		m, ok = any(&v).(encoding.BinaryMarshaler)
	}
	if ok {
		data, err := m.MarshalBinary()
		return data, err == nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// decodeValue is encodeValue's inverse; the two must agree on the
// representation for a given T, and do, because both key off the same
// interface checks. For pointer-typed T the unmarshaler hangs off T
// itself, so decode allocates the pointee reflectively.
func decodeValue[T any](data []byte) (T, bool) {
	var v T
	if u, ok := any(&v).(encoding.BinaryUnmarshaler); ok {
		return v, u.UnmarshalBinary(data) == nil
	}
	if rt := reflect.TypeFor[T](); rt.Kind() == reflect.Pointer && rt.Implements(binaryUnmarshalerType) {
		p := reflect.New(rt.Elem())
		if p.Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(data) != nil {
			return v, false
		}
		return p.Interface().(T), true
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return v, false
	}
	return v, true
}
