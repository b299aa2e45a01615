#!/bin/sh
# CI guard against inverted host scaling, with one leg per host size
# (minimum ns/op over three runs of each configuration):
#
#   - 4 or more cores: BenchmarkHostScaling at workers=1 and workers=4;
#     fails if workers=4 is more than 25% slower than workers=1 on either
#     simulator engine. This is a guard band, not a microbenchmark gate —
#     shared CI machines show ±10% run-to-run noise even between
#     identical binaries, so only the failure shape this guard exists for
#     (adding workers makes replay structurally slower, which before the
#     worker cap measured +26% and up) trips it.
#   - 2 or 3 cores: workers=1 and workers=2; fails unless workers=2 is
#     at least 1.15x faster than workers=1 on the MTA and 1.40x on the
#     SMP. Measured on a 2-vCPU VM (GOMAXPROCS 2, go1.24.0) with the
#     Floyd-pop region heap and the folded SMP counters, five runs of
#     this script (each the minimum of 3) gave MTA 1.28-1.67x (median
#     1.38x) and SMP 1.63-2.13x (median 1.79x). The MTA gains less
#     because its region scheduler (sim.RunRegion) replays serially after
#     the sharded charge replay.
#
# A single-core host cannot express any parallelism, so it skips.
#
# Usage: scripts/check_host_scaling.sh
set -eu

cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -lt 2 ]; then
    echo "check_host_scaling: SKIP — host has $cores core; a workers ratio needs >= 2"
    exit 0
fi
w=4
if [ "$cores" -lt 4 ]; then
    w=2
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "BenchmarkHostScaling/(MTA|SMP)/workers=(1|$w)\$" \
    -benchtime 2x -count 3 . | tee "$raw"

awk -v w="$w" '
/^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    if (!(name in nsop) || $3 + 0 < nsop[name] + 0) nsop[name] = $3
}
END {
    status = 0
    floor["MTA"] = 1.15
    floor["SMP"] = 1.40
    split("MTA SMP", engines, " ")
    for (i = 1; i <= 2; i++) {
        e = engines[i]
        base = nsop["BenchmarkHostScaling/" e "/workers=1"]
        wide = nsop["BenchmarkHostScaling/" e "/workers=" w]
        if (base + 0 <= 0 || wide + 0 <= 0) {
            printf "check_host_scaling: missing %s measurements\n", e
            status = 1
            continue
        }
        if (w == 4) {
            ratio = wide / base
            printf "check_host_scaling: %s workers=4 / workers=1 = %.3f\n", e, ratio
            if (ratio > 1.25) {
                printf "check_host_scaling: FAIL — %s workers=4 is %.0f%% slower than workers=1 (allowed 25%%)\n", e, (ratio - 1) * 100
                status = 1
            }
            continue
        }
        speedup = base / wide
        printf "check_host_scaling: %s workers=2 speedup over workers=1 = %.2fx\n", e, speedup
        if (speedup < floor[e]) {
            printf "check_host_scaling: FAIL — %s workers=2 speedup %.2fx is below the %.2fx floor\n", e, speedup, floor[e]
            status = 1
        }
    }
    exit status
}' "$raw"
