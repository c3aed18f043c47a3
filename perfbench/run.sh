#!/usr/bin/env bash
# Builds dlserve from the tree under test plus the benchmark's own
# binaries, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory. Compiling is not part of any reported time.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's config and telemetry files live under the config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dlserve" ]; then
	echo "perfbench: run from the root of a dlsearch checkout (no cmd/dlserve here)" >&2
	exit 1
fi
go build -o "$out/bin/dlserve" ./cmd/dlserve >&2
(cd "$root/perfbench" && go build -o "$out/bin/" ./cmd/perfbench ./cmd/perfreplay) >&2
if [ "${1:-}" = "--smoke" ] &&
	(cd "$root/perfbench" && go list -deps ./cmd/perfbench | grep '^dlsearch/internal/') >&2; then
	echo "perfbench: the end-to-end runner must not import dlsearch/internal packages" >&2
	exit 1
fi
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
