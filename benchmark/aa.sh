#!/usr/bin/env bash
# A/A self-check: runs the same build in two interleaved sets (A, B) of 10
# runs per workload, every run with another seed as the acceptance check does,
# plus set S of 4 runs on one fixed seed, every run as long as BENCHMARK.json's
# run_seconds. Prints the comparison as Markdown (commit it as
# benchmark/AA.md) and, once every run has completed without failed ops,
# rewrites benchmark/baseline.json from the medians of sets A and B. Exits
# non-zero unless, for every end-to-end metric of every workload, the two
# medians differ by at most bound/3 and each set's (Q3-Q1)/median is at most
# bound/2. The run counts and seeds are constants in aa.go.
#
#   bash benchmark/aa.sh > benchmark/AA.md
#
# Takes about 40 minutes on the 2-vCPU reference host.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec bash "$here/run.sh" -aa "$root/.bench_build/aa" -baseline "$here/baseline.json" -commit "$commit"
