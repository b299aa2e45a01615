#!/bin/sh
# CI gate for the spec/manifest layer: for every checked-in spec under
# specs/, the spec-driven run's report must be byte-identical to the
# equivalent flag-driven run's stdout, cmd/reproduce must accept the
# emitted manifest (which re-runs the spec and re-hashes every input
# and artifact), and after one byte of the report is corrupted
# cmd/reproduce must exit nonzero. Then, for profile, listrank, concomp
# and coloring, a spec written here and the same experiment given by
# flags must print the same stdout, write the same trace/attr files and
# carry the same spec hash in their manifests: the guard on each
# command's flag-to-spec-key mapping. Last, a concomp spec reading a
# DIMACS file (written by concomp -out) by a relative path, with a
# manifest: cmd/reproduce, run from that directory, must accept it.
#
# Usage: scripts/check_reproducibility.sh
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# One git consultation for the whole check; both binaries carry the same
# stamp, so manifest Commit fields agree between runs.
commit=$(sh "$root/scripts/version.sh")
bin="$work/bin"
mkdir -p "$bin"
(cd "$root" && go build -ldflags "-X pargraph/internal/cmdutil.Commit=$commit" -o "$bin" ./cmd/figures ./cmd/reproduce ./cmd/profile ./cmd/listrank ./cmd/concomp ./cmd/coloring)

fail=0

# check <name> <flag args...>: spec-driven vs flag-driven byte identity,
# then the reproduce round trip on the spec run's manifest.
check() {
    name=$1
    shift
    dir="$work/$name"
    mkdir -p "$dir"
    (cd "$dir" && "$bin/figures" -spec "$root/specs/$name.toml" 2>/dev/null)
    "$bin/figures" "$@" >"$dir/flags.out" 2>/dev/null
    if ! cmp -s "$dir/$name.json" "$dir/flags.out"; then
        echo "FAIL: $name: spec-driven report differs from flag-driven run ($*)"
        fail=1
        return
    fi
    if ! "$bin/reproduce" "$dir/$name.manifest.json" >/dev/null; then
        echo "FAIL: $name: reproduce rejected a pristine manifest"
        fail=1
        return
    fi
    # Corrupt the first byte of the report ('{' becomes '#') and demand
    # a nonzero exit.
    printf '#' | dd of="$dir/$name.json" bs=1 count=1 conv=notrunc 2>/dev/null
    if "$bin/reproduce" "$dir/$name.manifest.json" >/dev/null 2>&1; then
        echo "FAIL: $name: reproduce exited 0 on a corrupted artifact"
        fail=1
        return
    fi
    echo "ok: $name"
}

check e1_fig1      -fig 1 -json
check e2_fig2      -fig 2 -json
check e3_table1    -table 1 -json
check e4_summary   -summary -json
check e5_saturation -exp saturation -json
check e6_streams   -exp streams -json
check e7_treeeval  -exp treeeval -json
check e8_coloring  -exp coloring -json

spec_hash() { sed -n 's/.*"spec_sha256": "\([0-9a-f]*\)".*/\1/p' "$1"; }

# leg <name> <cmd> <spec text> <flag args...>: the spec and the
# flag-driven run, each from its own directory with a manifest, must
# agree on stdout, on every other file they write but the manifest, and
# on the manifest's spec hash.
leg() {
    name=$1
    cmd=$2
    text=$3
    shift 3
    dir="$work/$name"
    mkdir -p "$dir/spec" "$dir/flags"
    printf '%s\n' "$text" >"$dir/$name.toml"
    (cd "$dir/spec" && "$bin/$cmd" -spec "$dir/$name.toml" -emit-manifest m.json >stdout 2>/dev/null)
    (cd "$dir/flags" && "$bin/$cmd" "$@" -emit-manifest m.json >stdout 2>/dev/null)
    for f in "$dir/spec"/*; do
        base=$(basename "$f")
        [ "$base" = m.json ] && continue
        if ! cmp -s "$f" "$dir/flags/$base"; then
            echo "FAIL: $name: spec-driven $base differs from the flag-driven run ($*)"
            fail=1
            return
        fi
    done
    h=$(spec_hash "$dir/spec/m.json")
    if [ -z "$h" ] || [ "$h" != "$(spec_hash "$dir/flags/m.json")" ]; then
        echo "FAIL: $name: spec-driven and flag-driven manifests disagree on the spec hash ($*)"
        fail=1
        return
    fi
    echo "ok: $name"
}

leg profile profile '[run]
command = "profile"
seed = 7
[profile]
kernel = "prefix"
machine = "both"
n = 2048
procs = 4
layout = "ordered"
sample = 500
attr = "csv"
timeline = 20000' \
    -kernel prefix -machine both -n 2048 -procs 4 -layout ordered -seed 7 -sample 500 -attr csv -timeline 20000

leg listrank listrank '[run]
command = "listrank"
seed = 3
[workload]
n = 8192
layout = "clustered"
machine = "mta"
procs = 4
sched = "block"
sublists = 4
nodes_per_walk = 20
[output]
trace = "lr.trace.json"' \
    -n 8192 -layout clustered -machine mta -p 4 -sched block -sublists-per-proc 4 -nodes-per-walk 20 -seed 3 -trace lr.trace.json

leg concomp concomp '[run]
command = "concomp"
seed = 5
[workload]
gen = "rmat"
n = 2048
m = 8192
machine = "smp"
procs = 2
verify = false' \
    -gen rmat -n 2048 -m 8192 -machine smp -p 2 -seed 5 -verify=false

leg coloring coloring '[run]
command = "coloring"
seed = 9
[workload]
gen = "mesh3d"
rows = 8
cols = 9
depth = 4
machine = "mta"
procs = 4
sched = "block"
[output]
attr = "c.attr.csv"' \
    -gen mesh3d -rows 8 -cols 9 -depth 4 -machine mta -p 4 -sched block -seed 9 -attr c.attr.csv

# The relative path resolves against the working directory, for the
# run and for reproduce's in-memory re-run alike.
dir="$work/relative"
mkdir -p "$dir"
printf '[run]\ncommand = "concomp"\n[workload]\ninput = "g.dimacs"\nmachine = "mta"\nprocs = 2\n[output]\nmanifest = "m.json"\n' >"$dir/rel.toml"
if ! (cd "$dir" && "$bin/concomp" -n 256 -m 1024 -machine mta -p 2 -out g.dimacs >/dev/null 2>&1 &&
    "$bin/concomp" -spec rel.toml >/dev/null 2>&1); then
    echo "FAIL: relative-dimacs: the concomp runs failed"
    fail=1
elif ! (cd "$dir" && "$bin/reproduce" m.json >/dev/null); then
    echo "FAIL: relative-dimacs: reproduce rejected a manifest whose spec reads g.dimacs by a relative path"
    fail=1
else
    echo "ok: relative-dimacs"
fi

exit $fail
