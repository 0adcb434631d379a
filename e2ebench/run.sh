#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, from the checkout root:
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 36 --trace 0
#
# Every build artefact (binary, Go build cache, Go config, temporary files)
# stays under .bench_build/ in the checkout. Without the repository's sources next to
# e2ebench/ the build fails and the script exits non-zero without a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/e2ebench"
mkdir -p "$out"

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
