#!/bin/sh
# CI guard: no fused multiply-add anywhere in this module, so simulated
# bits do not depend on the host's CPU architecture.
#
# The Go spec lets the compiler fuse x*y + z into one fused
# multiply-add instruction, which rounds once instead of twice. amd64
# never fuses; arm64, ppc64le, s390x and riscv64 do, so a manifest made
# on one host would not reproduce on another. An explicit conversion,
# float64(x*y) + z, forbids the fusion (a temporary variable does not).
# This script compiles every package of the module for those four
# architectures with -S and fails on any FMADD/FMSUB/FNMADD/FNMSUB
# family instruction, printing its source line. There is no exception
# list: rewrite the flagged expression with a conversion.
#
# It needs only the local toolchain. On a 2-vCPU VM (go1.24.0) it took
# 12-13 s with a warm build cache and 158 s with an empty one (the four
# architectures' standard library compiles first); the go command
# replays cached -S output on a cache hit, so a warm run still sees
# every site.
#
# Usage: scripts/check_nofma.sh
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail=0
for arch in arm64 ppc64le s390x riscv64; do
    if ! (cd "$root" && GOOS=linux GOARCH=$arch CGO_ENABLED=0 go build -gcflags='pargraph/...=-S' ./...) > "$work/$arch.s" 2>&1; then
        tail -n 20 "$work/$arch.s"
        echo "check_nofma: FAIL — the module does not build for $arch"
        exit 1
    fi
    grep -E '\)[[:space:]]+FN?M(ADD|SUB)[DS]?[[:space:]]' "$work/$arch.s" |
        sed -E 's/^[^(]*\(([^)]*)\)[[:space:]]+([A-Z]+).*/\1 \2/' | sort -u > "$work/$arch.sites" || true
    if [ -s "$work/$arch.sites" ]; then
        echo "$arch: fused multiply-add at:"
        sed 's/^/    /' "$work/$arch.sites"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "check_nofma: FAIL — write each flagged x*y + z as float64(x*y) + z"
    exit 1
fi
echo "check_nofma: ok — no fused multiply-add on arm64, ppc64le, s390x or riscv64"
