#!/bin/sh
# CI guard against inverted host scaling, with one leg per host size.
# Each of eleven rounds runs both configurations back to back and yields
# one ratio per engine; the guard decides on the median of the eleven:
#
#   - 4 or more cores: BenchmarkHostScaling at workers=1 and workers=4;
#     fails if workers=4 is more than 25% slower than workers=1 on either
#     simulator engine. This is a guard band, not a microbenchmark gate —
#     shared CI machines show ±10% run-to-run noise even between
#     identical binaries, so only the failure shape this guard exists for
#     (adding workers makes replay structurally slower, which before the
#     worker cap measured +26% and up) trips it.
#   - 2 or 3 cores: workers=1 and workers=2; fails unless workers=2 is
#     at least 1.25x faster than workers=1 on the MTA and 1.40x on the
#     SMP. Neither engine reaches 2x: the MTA's region scheduler
#     (sim.RunRegion) is serial, overlapping only the next region's
#     replay, and RankSMP's fixed serial costs (the head check,
#     allocation, the barriers) weigh more the shorter it runs.
#
# A ratio of two runs adjacent in time cancels the host's drift, and
# the median drops the rounds the host's moment-to-moment noise spoiled
# (single rounds read 0.95-2.42x). The minimum of each configuration
# over all rounds would let one lucky run set the ratio: one workers=1
# run read 318 ms on the MTA where the others read 471-514 ms, as fast
# as workers=2. With five rounds, on a 2-vCPU VM (GOMAXPROCS 2,
# go1.24.0), four of fifteen runs read SMP medians of 1.35-1.38x, below
# the floor. With eleven, on the same VM, ten runs read MTA medians of
# 1.36-1.60x and SMP 1.33-1.85x, and one failed the SMP leg (1.33x); ten
# runs with machines that ignore SetHostWorkers read MTA 0.92-1.09x and
# SMP 0.85-1.05x and failed both legs every time. The SMP floor still
# sits at the edge of this VM's noise: its per-round ratios drift
# between stretches of time, not only between rounds. A run takes
# 27-32 s, against 14 s with five rounds.
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

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Eleven rounds, each running both configurations, the order
# alternating between rounds; each round's output goes to its own file.
rounds=11
go test -c -o "$work/scaling.test" .
round=1
while [ "$round" -le "$rounds" ]; do
    order="1 $w"
    if [ $((round % 2)) -eq 0 ]; then
        order="$w 1"
    fi
    for k in $order; do
        "$work/scaling.test" -test.run '^$' \
            -test.bench "BenchmarkHostScaling/(MTA|SMP)/workers=$k\$" \
            -test.benchtime 2x | tee -a "$work/round$(printf %02d "$round").txt"
    done
    round=$((round + 1))
done

awk -v w="$w" -v want="$rounds" '
/^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    split(name, part, "/")     # BenchmarkHostScaling, engine, workers=k
    sub(/^workers=/, "", part[3])
    nsop[FILENAME, part[2], part[3]] = $3
    if (!(FILENAME in seen)) {
        seen[FILENAME] = 1
        rounds[++nr] = FILENAME
    }
}
END {
    status = 0
    floor["MTA"] = 1.25
    floor["SMP"] = 1.40
    split("MTA SMP", engines, " ")
    for (i = 1; i <= 2; i++) {
        e = engines[i]
        n = 0
        list = ""
        for (r = 1; r <= nr; r++) {
            base = nsop[rounds[r], e, 1]
            wide = nsop[rounds[r], e, w]
            if (base + 0 <= 0 || wide + 0 <= 0) {
                continue
            }
            # workers=4 is judged by its slowdown, workers=2 by its speedup.
            x = (w == 4) ? wide / base : base / wide
            list = list sprintf(" %.2f", x)
            # insertion sort into ratio[1..n]
            for (j = ++n; j > 1 && ratio[j - 1] > x; j--) {
                ratio[j] = ratio[j - 1]
            }
            ratio[j] = x
        }
        if (n < want) {
            printf "check_host_scaling: %s has %d complete rounds of %d\n", e, n, want
            status = 1
            continue
        }
        med = (n % 2) ? ratio[(n + 1) / 2] : (ratio[n / 2] + ratio[n / 2 + 1]) / 2
        if (w == 4) {
            printf "check_host_scaling: %s workers=4 / workers=1 = %.3f (median of%s)\n", e, med, list
            if (med > 1.25) {
                printf "check_host_scaling: FAIL — %s workers=4 is %.0f%% slower than workers=1 (allowed 25%%)\n", e, (med - 1) * 100
                status = 1
            }
            continue
        }
        printf "check_host_scaling: %s workers=2 speedup over workers=1 = %.2fx (median of%s)\n", e, med, list
        if (med < floor[e]) {
            printf "check_host_scaling: FAIL — %s workers=2 speedup %.2fx is below the %.2fx floor\n", e, med, floor[e]
            status = 1
        }
    }
    exit status
}' "$work"/round*.txt
