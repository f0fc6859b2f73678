#!/usr/bin/env bash
# Builds gps-serve and the benchmark from the sources of this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload replay|ingest|live --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Binaries, the Go build cache and the
# generated inputs all stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gps-serve || ! -d internal ]]; then
	echo "perfbench: run from the root of a gps checkout (go.mod, cmd/gps-serve and internal/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/gps-serve" ./cmd/gps-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/gps-serve" -work "$out/work" "$@"
