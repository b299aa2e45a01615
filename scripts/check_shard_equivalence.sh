#!/bin/sh
# CI guard for the sharding contract: a shard stores the cells it owns in
# the result cache and writes nothing, and the same command without
# -shard on that cache replays every cell into exactly the bytes a cold
# unsharded run writes. Legs: fig1 (-json report and Chrome trace) at
# N = 2 and N = 4, and cmd/profile -machine both (stdout and trace) at
# N = 2. Every leg also requires each shard's stdout to be empty, and
# the replaying run's result cache to read misses=0 with hits equal to
# the sum of the shards' puts — so a cell no shard computed fails the
# guard instead of being quietly recomputed, and a cell two shards
# computed shows up as a puts/hits mismatch.
#
# Usage: scripts/check_shard_equivalence.sh
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/figures" ./cmd/figures
go build -o "$workdir/profile" ./cmd/profile

fail() {
    echo "check_shard_equivalence: FAIL — $*"
    exit 1
}

# counter FILE STORE FIELD prints one counter of a -cache-stats line.
counter() {
    sed -n "s/^$2 cache ([^)]*):.* $3=\([0-9]*\).*/\1/p" "$1"
}

# leg NAME N CMD ARGS... runs CMD ARGS cold and unsharded, then as N
# shards on a fresh cache, then unsharded on that cache, and compares.
leg() {
    name=$1 n=$2 cmd=$3
    shift 3
    cold="$workdir/$name.cold"
    if [ ! -e "$cold.out" ]; then
        "$workdir/$cmd" "$@" -trace "$cold.trace" >"$cold.out" 2>/dev/null
    fi
    dir="$workdir/$name$n"
    mkdir "$dir"
    puts=0
    i=0
    while [ "$i" -lt "$n" ]; do
        "$workdir/$cmd" "$@" -shard "$i/$n" -cache-dir "$dir/cache" -cache-stats \
            -trace "$dir/shard$i.trace" >"$dir/shard$i.out" 2>"$dir/shard$i.err"
        if [ -s "$dir/shard$i.out" ]; then
            fail "$name N=$n: shard $i/$n wrote to stdout"
        fi
        if [ -e "$dir/shard$i.trace" ]; then
            fail "$name N=$n: shard $i/$n wrote a trace"
        fi
        puts=$((puts + $(counter "$dir/shard$i.err" result puts)))
        i=$((i + 1))
    done
    "$workdir/$cmd" "$@" -cache-dir "$dir/cache" -cache-stats -trace "$dir/merge.trace" \
        >"$dir/merge.out" 2>"$dir/merge.err"
    hits=$(counter "$dir/merge.err" result hits)
    misses=$(counter "$dir/merge.err" result misses)
    if [ "$misses" != 0 ]; then
        fail "$name N=$n: the unsharded run computed $misses cells no shard stored"
    fi
    if [ "$puts" = 0 ] || [ "$hits" != "$puts" ]; then
        fail "$name N=$n: the unsharded run replayed $hits cells, the shards stored $puts"
    fi
    if ! cmp -s "$cold.out" "$dir/merge.out"; then
        diff "$cold.out" "$dir/merge.out" | head -20
        fail "$name N=$n: stdout after the shards differs from the cold unsharded run"
    fi
    if ! cmp -s "$cold.trace" "$dir/merge.trace"; then
        fail "$name N=$n: trace after the shards differs from the cold unsharded run"
    fi
    echo "check_shard_equivalence: $name N=$n stdout and trace byte-identical to unsharded; misses=0, hits=$hits = shards' puts"
}

leg fig1 2 figures -fig 1 -json
leg fig1 4 figures -fig 1 -json
leg profile 2 profile -kernel fig1 -machine both
