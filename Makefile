GO ?= go

# One git consultation per make invocation: every binary built through
# this Makefile carries the commit identity, so manifests and bench
# metas record provenance without shelling out to git at run time.
COMMIT := $(shell sh scripts/version.sh)
LDFLAGS = -X pargraph/internal/cmdutil.Commit=$(COMMIT)

.PHONY: build test race vet bench-simulators check-host-scaling bench-sweeps check-sweep-scaling check-shard-equivalence check-reproducibility check-result-cache check-serve check-pins cache-clean verify

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

# Race-check the simulator packages, the kernels that replay on them,
# the cross-process disk cache, the spec/manifest/runner layers that
# drive them from experiment specs, and the job-queue/HTTP layer that
# serves them.
race:
	$(GO) test -race ./internal/par/ ./internal/mta/ ./internal/smp/ ./internal/sim/ ./internal/sweep/ ./internal/harness/ ./internal/listrank/ ./internal/concomp/ ./internal/treecon/ ./internal/coloring/ ./internal/diskcache/ ./internal/spec/ ./internal/manifest/ ./internal/runner/ ./internal/jobqueue/ ./internal/serve/

vet:
	$(GO) vet ./...

# Regenerate BENCH_simulators.json (host ns/op for the simulator engines
# and the SetHostWorkers scaling sweep).
bench-simulators:
	sh scripts/bench_simulators.sh

# Fail if workers=4 replay is >25% slower than workers=1 (the inverted
# scaling shape the worker cap and pooled dispatch fixed; the band allows
# for shared-machine benchmark noise); on 2-3 cores, fail unless
# workers=2 beats workers=1 by the floors in the script header.
check-host-scaling:
	sh scripts/check_host_scaling.sh

# Regenerate BENCH_sweeps.json (sweep wall-clock for the experiment
# scheduler's -jobs setting on the E1 and E8 harness sweeps).
bench-sweeps:
	sh scripts/bench_sweeps.sh

# Fail if the E1 sweep at jobs=4 is not >= 1.8x faster than jobs=1, or
# on 2-3 cores jobs=2 not >= 1.3x (skips on a single core, where the
# scheduler caps jobs at GOMAXPROCS and the curve is structurally flat).
check-sweep-scaling:
	sh scripts/check_sweep_scaling.sh

# Fail if the unsharded run over the result cache that shards 0..N-1
# filled is not byte-identical to a cold unsharded run (fig1 for N in
# {2, 4}, profile -machine both for N = 2), replays anything but the
# shards' cells, or if a shard writes to stdout.
check-shard-equivalence:
	sh scripts/check_shard_equivalence.sh

# Fail if the checked-in specs do not regenerate their artifacts
# byte-identically to flag-driven runs, or if cmd/reproduce fails to
# pass a clean manifest / catch a corrupted artifact.
check-reproducibility:
	sh scripts/check_reproducibility.sh

# Fail if a warm re-run against the result cache is not byte-identical
# to the cold run for fig1/fig2/table1/coloring and the listrank,
# concomp (generated and DIMACS input) and coloring single runs, records
# different manifest inputs, re-simulates any cell, reads any input, or
# fails to make the fig1 sweep at least 5x faster.
check-result-cache:
	sh scripts/check_result_cache.sh

# Fail if cmd/serve's HTTP artifacts are not byte-identical to the CLI
# run of the same spec, a repeated job re-simulates any cell, or a
# SIGTERM does not drain the server to a clean exit.
check-serve:
	sh scripts/check_serve.sh

# Fail unless one cold-suite pass reproduces every pinned artifact (E1-E8
# and the single runs at the pin seed) byte for byte: perfbench's last
# line must read "correct":true with "failed":0. Simulator changes that
# must keep every bit run this.
check-pins:
	@last=$$(bash perfbench/run.sh --workload cold-suite --seed 1 --seconds 1 --trace 0 | tail -n 1); \
	echo "$$last"; \
	case "$$last" in \
	*'"correct":true'*'"failed":0,'*) ;; \
	*) echo "check-pins: FAIL — an artifact differs from perfbench/pins.json, or a job failed"; exit 1 ;; \
	esac

# Empty the persistent input/result cache the experiment commands use
# when -cache-dir or $PARGRAPH_CACHE points at one. Entries are
# content-addressed, so clearing is always safe — the next run rebuilds
# what it needs.
cache-clean:
	@if [ -n "$$PARGRAPH_CACHE" ]; then \
		rm -rf "$$PARGRAPH_CACHE"; \
		echo "removed $$PARGRAPH_CACHE"; \
	else \
		echo "PARGRAPH_CACHE not set; pass the directory you gave -cache-dir, e.g. rm -rf /tmp/pgc"; \
	fi

verify: vet build test
