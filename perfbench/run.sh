#!/usr/bin/env bash
# Builds the simulator benchmark from the source checkout it sits in and runs
# it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload micro --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, span samples) goes to
# $CARGO_TARGET_DIR, or .bench_build at the checkout root when that is unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out-dir "$out" "$@"
