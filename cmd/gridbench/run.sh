#!/usr/bin/env bash
# Builds gridbench from source and runs it with the given arguments. Run it
# from the repository root; the Go build cache, temporary files and the
# binary all stay under .bench_build/ there.
#
#   bash cmd/gridbench/run.sh -o results.json
#   bash cmd/gridbench/run.sh --workload paper-fig3 --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/cmd/gridbench/go.mod" ]]; then
	echo "gridbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/gridbench"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/home/go" GOMODCACHE="$out/home/go/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/cmd/gridbench" && go build -o "$out/gridbench" .)
exec "$out/gridbench" "$@"
