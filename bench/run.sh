#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (and, through it,
# ./cmd/ldlserver) from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. The Go build cache lives
# there too, so nothing is read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
mkdir -p .bench_build/bin
go build -C bench -o "$root/.bench_build/bin/ldlbench" .
exec .bench_build/bin/ldlbench "$@"
