#!/usr/bin/env bash
# Builds the end-to-end session benchmark from the checkout this script
# sits in and runs it with the given arguments, e.g.
#
#   bash sessionbench/run.sh --workload first-contact --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry files) stays under .bench_build/ at the checkout root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out"
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off

(cd "$root/sessionbench" && go build -buildvcs=false -o "$out/sessionbench" .) >&2

commit=unknown
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
	if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
		commit=$commit-dirty
	fi
fi
source_sha256=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1) || source_sha256=unknown

cd "$root"
SESSIONBENCH_COMMIT=$commit SESSIONBENCH_SOURCE=$source_sha256 exec "$out/sessionbench" "$@"
