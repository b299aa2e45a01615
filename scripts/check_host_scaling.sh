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
#     SMP. Measured on a 2-vCPU VM (GOMAXPROCS 2, go1.24.0) once the list
#     kernels walked the list in one sublist decomposition on the host
#     workers and sharded exact MTA regions were scheduled in the
#     background: twelve runs of this script (each the minimum of 3) gave
#     MTA 1.33-1.97x (median 1.65x) and SMP 1.20-2.16x (median 1.54x),
#     three SMP runs (1.20x, 1.26x, 1.34x) failing the guard. Nine runs
#     of the parent alternating with them gave MTA 1.34-1.61x (median
#     1.47x) and SMP 1.45-1.89x (median 1.62x), and the parent read SMP
#     1.39x earlier in the same session: the SMP legs are noisy on this
#     host, and the more so the shorter the kernel, since RankSMP now
#     runs in 100-230 ms where it took 250-560 ms. Neither
#     engine reaches 2x. The MTA's region scheduler (sim.RunRegion) is
#     serial, overlapping only the next region's replay; RankSMP at one
#     worker takes about a third of its former time, so its fixed serial
#     costs (the head check, allocation, the barriers) weigh more.
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
