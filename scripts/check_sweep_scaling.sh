#!/bin/sh
# CI guard for the sweep scheduler's scaling acceptance, with one leg per
# host size (minimum ns/op over three runs of each configuration):
#
#   - 4 or more cores: the E1 (fig1) harness sweep at jobs=4 must run at
#     least 1.8x faster than at jobs=1.
#   - 2 or 3 cores: fig1 at jobs=2 must run at least 1.3x faster than at
#     jobs=1. Measured on a 2-vCPU VM (GOMAXPROCS 2, go1.24.0) with the
#     Floyd-pop region heap and the folded SMP counters, five runs of
#     this script (each the minimum of 3) gave 1.63-2.36x (median 1.99x);
#     fig1 at jobs=1 took 1.45 s.
#
# The scheduler caps jobs at GOMAXPROCS, so on a single core the curve
# is structurally flat and the guard skips.
#
# Usage: scripts/check_sweep_scaling.sh
set -eu

cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -lt 2 ]; then
    echo "check_sweep_scaling: SKIP — host has $cores core; a jobs ratio needs >= 2"
    exit 0
fi
jobs=4
floor=1.8
if [ "$cores" -lt 4 ]; then
    jobs=2
    floor=1.3
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "BenchmarkSweepScaling/fig1/jobs=(1|$jobs)\$" \
    -benchtime 1x -count 3 . | tee "$raw"

awk -v jobs="$jobs" -v floor="$floor" '
/^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    if (!(name in nsop) || $3 + 0 < nsop[name] + 0) nsop[name] = $3
}
END {
    base = nsop["BenchmarkSweepScaling/fig1/jobs=1"]
    wide = nsop["BenchmarkSweepScaling/fig1/jobs=" jobs]
    if (base + 0 <= 0 || wide + 0 <= 0) {
        printf "check_sweep_scaling: missing measurements\n"
        exit 1
    }
    speedup = base / wide
    printf "check_sweep_scaling: fig1 jobs=%d speedup over jobs=1 = %.2fx\n", jobs, speedup
    if (speedup < floor) {
        printf "check_sweep_scaling: FAIL — jobs=%d speedup %.2fx is below the %.1fx acceptance floor\n", jobs, speedup, floor
        exit 1
    }
}' "$raw"
