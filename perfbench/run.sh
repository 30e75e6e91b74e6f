#!/usr/bin/env bash
# Builds the benchmark and stationd from the checkout it is run in, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-window --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files go under .bench_build
# (or $CARGO_TARGET_DIR) inside the checkout; nothing is written elsewhere.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/stationd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a mobicache checkout" >&2
	exit 2
fi
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/perfbench"

# Keep every Go cache and config file inside the checkout, and build
# offline from the checkout's sources only.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config HOME=$build/home TMPDIR=$build/tmp GOTMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
mkdir -p "$HOME" "$TMPDIR"

go build -o "$build/perfbench/stationd" ./cmd/stationd
(cd perfbench && go build -o "$build/perfbench/perfbench" .)

args=()
while [ $# -gt 0 ]; do
	case $1 in
	--workload | --seed | --seconds | --trace)
		[ $# -ge 2 ] || { echo "perfbench: $1 needs a value" >&2; exit 2; }
		args+=("-${1#--}" "$2")
		shift 2
		;;
	*)
		echo "perfbench: unknown argument $1" >&2
		exit 2
		;;
	esac
done
exec "$build/perfbench/perfbench" -root "$root" -out "$build/perfbench" \
	-stationd "$build/perfbench/stationd" "${args[@]}"
