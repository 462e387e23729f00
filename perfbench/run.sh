#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments:
#
#   bash perfbench/run.sh --workload fleet-1k --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary
# and every file a run writes stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$here/../go.mod" ]]; then
	echo "perfbench: no go.mod above $here; run from a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-run" "$@"
