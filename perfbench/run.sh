#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload publish --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# span dumps stay under $CARGO_TARGET_DIR (default .bench_build), so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
