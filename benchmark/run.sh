#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the checkout root and
# runs it from there. Everything the build and the run write stays inside the
# checkout: the Go build cache, GOPATH, the toolchain's own usage counters
# (which follow XDG_CONFIG_HOME), temporary artifacts and trace.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/geoloc-benchmark" .) >&2
cd "$root"
exec "$build/geoloc-benchmark" "$@"
