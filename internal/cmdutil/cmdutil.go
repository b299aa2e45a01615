// Package cmdutil holds the helpers shared by the command-line tools:
// size and generator checks that reject bad values with a one-line
// error instead of a panic stack trace, the -jobs and -workers
// resolution, the cache directory, and the pprof and version helpers.
package cmdutil

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"pargraph/internal/diskcache"
)

// ResolveJobs validates a -jobs flag value: negative values are
// rejected, 0 means one concurrent experiment cell per host CPU, and
// positive values pass through. The sweep scheduler's own GOMAXPROCS
// cap is a backstop.
func ResolveJobs(j int) (int, error) { return perCPU("jobs", j) }

// ResolveWorkers validates a -workers flag value the same way: 0 means
// one host goroutine per host CPU replaying each simulated region. The
// machines' own GOMAXPROCS cap is a backstop.
func ResolveWorkers(w int) (int, error) { return perCPU("workers", w) }

func perCPU(flag string, n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("-%s must be >= 0 (0 = one per host CPU), got %d", flag, n)
	}
	if n == 0 {
		return runtime.NumCPU(), nil
	}
	return n, nil
}

// CacheEnv is the environment variable consulted when -cache-dir is
// not given. The persistent input cache stays off unless one of the
// two names a directory.
const CacheEnv = "PARGRAPH_CACHE"

// OpenCache resolves the persistent cache directory — the -cache-dir
// flag wins, then $PARGRAPH_CACHE, then off — and opens a
// content-addressed store there under the given schema salt. Returns
// (nil, nil) when caching is off. The caller names the store in the
// error: one directory holds both the input and the result store.
func OpenCache(flagValue, schema string) (*diskcache.Store, error) {
	dir := flagValue
	if dir == "" {
		dir = os.Getenv(CacheEnv)
	}
	if dir == "" {
		return nil, nil
	}
	return diskcache.Open(dir, schema)
}

// PrintCacheStats reports one store's traffic counters in the -cache-stats
// stderr format every experiment command shares. A nil store prints the
// cache as off, so callers can pass their store handles unconditionally.
func PrintCacheStats(w io.Writer, name string, s *diskcache.Store) {
	if s == nil {
		fmt.Fprintf(w, "%s cache: off\n", name)
		return
	}
	st := s.Stats()
	fmt.Fprintf(w, "%s cache (%s): hits=%d misses=%d rejects=%d puts=%d prunes=%d read=%dB written=%dB\n",
		name, s.Dir(), st.Hits, st.Misses, st.Rejects, st.Puts, st.Prunes, st.BytesRead, st.BytesWritten)
}

// CheckPositive rejects non-positive values of a size flag.
func CheckPositive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("%s must be positive, got %d", name, v)
	}
	return nil
}

// CheckGraphGen validates generator parameters up front, mirroring the
// preconditions the internal/graph constructors enforce by panicking.
// gen is one of gnm, rmat, mesh2d, mesh3d, torus; the rmat case derives
// the scale from n the way the cmds do (smallest power of two >= n).
func CheckGraphGen(gen string, n, m, rows, cols, depth int) error {
	switch gen {
	case "gnm":
		if n <= 0 {
			return fmt.Errorf("gnm needs -n >= 1, got %d", n)
		}
		if m < 0 {
			return fmt.Errorf("gnm needs -m >= 0, got %d", m)
		}
		if maxM := int64(n) * int64(n-1) / 2; int64(m) > maxM {
			return fmt.Errorf("gnm with -n %d holds at most %d edges, got -m %d", n, maxM, m)
		}
	case "rmat":
		if n <= 0 {
			return fmt.Errorf("rmat needs -n >= 1, got %d", n)
		}
		scale := 0
		for 1<<scale < n {
			scale++
		}
		if scale < 1 {
			scale = 1
		}
		if scale > 30 {
			return fmt.Errorf("rmat scale %d (from -n %d) exceeds the supported 30", scale, n)
		}
		if m < 0 {
			return fmt.Errorf("rmat needs -m >= 0, got %d", m)
		}
		nr := int64(1) << scale
		if maxM := nr * (nr - 1) / 4; int64(m) > maxM {
			return fmt.Errorf("rmat at scale %d supports at most %d edges, got -m %d", scale, maxM, m)
		}
	case "mesh2d":
		if rows <= 0 || cols <= 0 {
			return fmt.Errorf("mesh2d needs positive -rows and -cols, got %dx%d", rows, cols)
		}
	case "mesh3d":
		if rows <= 0 || cols <= 0 || depth <= 0 {
			return fmt.Errorf("mesh3d needs positive -rows, -cols and -depth, got %dx%dx%d", rows, cols, depth)
		}
	case "torus":
		if rows <= 0 || cols <= 0 {
			return fmt.Errorf("torus needs positive -rows and -cols, got %dx%d", rows, cols)
		}
	default:
		return fmt.Errorf("unknown generator %q (want gnm, rmat, mesh2d, mesh3d, or torus)", gen)
	}
	return nil
}
