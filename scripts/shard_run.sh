#!/bin/sh
# Coordinator for sharded figure runs: splits one cmd/figures invocation
# into N shard processes sharing a persistent content-addressed cache,
# runs them concurrently, then runs the same invocation without -shard
# on that cache. Each shard stores the results of the cells it owns and
# writes nothing else; the last run replays every cell from the cache
# and writes exactly what the unsharded command writes, to stdout and
# to the files its arguments name. The shards also share generated
# inputs through the cache: the first process to need one builds and
# persists it, the rest read it back.
#
# Usage: scripts/shard_run.sh N [figures args...]
#
#	scripts/shard_run.sh 4 -fig 1 -scale medium -json > report.json
#	scripts/shard_run.sh 2 -all -trace all.trace.json > all.txt
#
# The cache directory defaults to a per-invocation temporary; export
# PARGRAPH_CACHE to keep it, and every cell stored there, across
# invocations.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: scripts/shard_run.sh N [figures args...]" >&2
    exit 2
fi
n=$1
shift
case $n in
'' | *[!0-9]* | 0*)
    echo "shard_run: shard count must be a positive integer, got '$n'" >&2
    exit 2
    ;;
esac

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Build once; N concurrent `go run`s would race on the build cache lock
# and hide compile errors behind whichever shard fails first.
go build -o "$workdir/figures" ./cmd/figures

cache=${PARGRAPH_CACHE:-$workdir/cache}

# A single shard (-shard 0/1) is the unsharded run itself; the final run
# below does that work alone.
i=0
if [ "$n" -eq 1 ]; then
    i=1
fi
pids=""
while [ "$i" -lt "$n" ]; do
    "$workdir/figures" "$@" -shard "$i/$n" -cache-dir "$cache" &
    pids="$pids $!"
    i=$((i + 1))
done

status=0
for pid in $pids; do
    wait "$pid" || status=$?
done
if [ "$status" -ne 0 ]; then
    echo "shard_run: a shard process failed (exit $status)" >&2
    exit "$status"
fi

"$workdir/figures" "$@" -cache-dir "$cache"
echo "shard_run: ran $n shards, then replayed them unsharded" >&2
