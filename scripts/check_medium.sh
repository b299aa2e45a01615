#!/bin/sh
# CI gate for the medium-scale report: `figures -all -scale medium
# -jobs 0` must reproduce the checked-in figures_medium.txt byte for
# byte. This pins simulated bits at the scale EXPERIMENTS.md quotes:
# fig1's walk regions up to n = 2^20 take the exact region scheduler and
# n = 2^21 the aggregate path, and every ablation (A1-A8) is included.
# A change that moves a number there is a model change: regenerate the
# file with the command below in the same commit and say why.
#
#   go run ./cmd/figures -all -scale medium -jobs 0 > figures_medium.txt
#
# A second leg runs the same report with -workers 2, so host-sharded
# replay is checked end to end at the scale where region sizes straddle
# the machines' serial cutoffs; it must match the same file.
#
# The two legs take about 25 s of wall time on a 2-vCPU VM (GOMAXPROCS
# 2, go1.24.0), plus the build.
#
# Usage: scripts/check_medium.sh
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(cd "$root" && go build -o "$work/figures" ./cmd/figures)
for workers in 1 2; do
    "$work/figures" -all -scale medium -jobs 0 -workers "$workers" > "$work/medium.txt"
    if ! cmp "$root/figures_medium.txt" "$work/medium.txt"; then
        diff "$root/figures_medium.txt" "$work/medium.txt" | head -n 40 || true
        echo "check_medium: FAIL — figures -all -scale medium -workers $workers differs from figures_medium.txt"
        exit 1
    fi
    echo "check_medium: ok — figures -all -scale medium -workers $workers matches figures_medium.txt"
done
