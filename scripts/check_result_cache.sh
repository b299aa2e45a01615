#!/bin/sh
# CI gate for the result cache: against a shared cache directory, a warm
# re-run of each sweep (fig1, fig2, table1, coloring, then every
# artifact of figures -all, and a profile on both machines) and of the
# single-run commands (listrank on the MTA, concomp on the MTA with
# verification, coloring on the SMP with verification, and concomp on a
# DIMACS file that concomp -out wrote, keyed by the file's content) must
# emit byte-identical stdout to the cold run, the
# cold and warm manifests must agree on the spec hash and byte for byte
# on their inputs sections, the warm run's result store must report
# zero misses — no cell re-simulated — and its input store zero hits
# and zero misses: a warm run replays the input digests stored with
# each result and opens no input. The warm fig1 sweep must also be at
# least 5x faster than the cold one (the measured margin is orders of
# magnitude; 5x just guards against the cache silently degrading to
# recompute-always).
#
# Usage: scripts/check_result_cache.sh
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

commit=$(sh "$root/scripts/version.sh")
bin="$work/bin"
mkdir -p "$bin"
(cd "$root" && go build -ldflags "-X pargraph/internal/cmdutil.Commit=$commit" -o "$bin" ./cmd/figures ./cmd/profile ./cmd/listrank ./cmd/concomp ./cmd/coloring)

cache="$work/cache"
fail=0

now_ns() { date +%s%N; }

spec_hash() { sed -n 's/.*"spec_sha256": "\([0-9a-f]*\)".*/\1/p' "$1"; }

# inputs_of prints a manifest's inputs section: from its "inputs" line
# through the closing bracket at the same indentation.
inputs_of() { awk '/^  "inputs": /{on=1} on{print} on && (/^  \]/ || /\[\],?$/){exit}' "$1"; }

# check <name> <cmd> <args...>: cold run primes the cache, warm run
# must replay it exactly.
check() {
    name=$1
    cmd=$2
    shift 2
    dir="$work/$name"
    mkdir -p "$dir"
    t0=$(now_ns)
    "$bin/$cmd" "$@" -cache-dir "$cache" -emit-manifest "$dir/cold.manifest.json" >"$dir/cold.out" 2>/dev/null
    t1=$(now_ns)
    "$bin/$cmd" "$@" -cache-dir "$cache" -cache-stats -emit-manifest "$dir/warm.manifest.json" >"$dir/warm.out" 2>"$dir/warm.stats"
    t2=$(now_ns)

    if ! cmp -s "$dir/cold.out" "$dir/warm.out"; then
        echo "FAIL: $name: warm stdout differs from cold"
        fail=1
        return
    fi
    if [ "$(spec_hash "$dir/cold.manifest.json")" != "$(spec_hash "$dir/warm.manifest.json")" ]; then
        echo "FAIL: $name: cold and warm manifests disagree on the spec hash"
        fail=1
        return
    fi
    inputs_of "$dir/cold.manifest.json" >"$dir/cold.inputs"
    inputs_of "$dir/warm.manifest.json" >"$dir/warm.inputs"
    if ! grep -q '"sha256"' "$dir/cold.inputs"; then
        echo "FAIL: $name: cold manifest records no inputs"
        fail=1
        return
    fi
    if ! cmp -s "$dir/cold.inputs" "$dir/warm.inputs"; then
        echo "FAIL: $name: cold and warm manifests disagree on their inputs"
        diff "$dir/cold.inputs" "$dir/warm.inputs" | head -20
        fail=1
        return
    fi
    instats=$(grep '^input cache' "$dir/warm.stats" || true)
    case $instats in
    *" hits=0 misses=0 "*) ;;
    *)
        echo "FAIL: $name: warm run looked up inputs: $instats"
        fail=1
        return
        ;;
    esac
    stats=$(grep '^result cache' "$dir/warm.stats" || true)
    case $stats in
    *" misses=0 "*) ;;
    *)
        echo "FAIL: $name: warm run re-simulated cells: $stats"
        fail=1
        return
        ;;
    esac
    case $stats in
    *"hits=0 "*)
        echo "FAIL: $name: warm run recorded no result-cache hits: $stats"
        fail=1
        return
        ;;
    esac

    extra=""
    if [ "$name" = fig1 ]; then
        speedup=$(awk -v c=$((t1 - t0)) -v w=$((t2 - t1)) 'BEGIN { printf "%.1f", (w > 0) ? c / w : 999 }')
        if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 5) }'; then
            echo "FAIL: fig1: warm run only ${speedup}x faster than cold (need >= 5x)"
            fail=1
            return
        fi
        extra=" (warm ${speedup}x faster)"
    fi
    echo "ok: $name$extra"
}

check fig1     figures -fig 1 -json
check fig2     figures -fig 2 -json
check table1   figures -table 1 -json
check coloring figures -exp coloring -json
check all      figures -all -json
check profile  profile -kernel prefix -machine both -n 16384 -procs 4
check listrank listrank -machine mta -n 65536 -p 4
check concomp  concomp -machine mta -n 16384 -m 65536 -p 4 -verify
check coloring-smp coloring -machine smp -n 4096 -m 32768 -p 4 -verify

"$bin/concomp" -machine seq -n 8192 -m 32768 -out "$work/g.dimacs" >/dev/null
check concomp-dimacs concomp -machine mta -in "$work/g.dimacs" -p 4 -verify

exit $fail
