#!/usr/bin/env bash
# Builds cmd/planserver and the benchmark program from this checkout, then
# runs the program with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload plan-mixed --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/planserver" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/planserver" ./cmd/planserver
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -server "$out/planserver" "$@"
