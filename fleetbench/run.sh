#!/usr/bin/env bash
# Fleet benchmark entry point. Run from the root of a checkout:
#
#   bash fleetbench/run.sh --workload care-reads --seed 1 --seconds 10 --trace 0
#
# It builds nevermindd and nevermindgw from this checkout's ./cmd, builds the
# load generator (and, for --trace 1, the ladder), and runs one workload. Every
# build artifact, cache and scratch file stays under .bench_build/.
set -euo pipefail

ROOT="$(pwd)"
if [[ ! -f "$ROOT/go.mod" || ! -d "$ROOT/cmd/nevermindd" || ! -d "$ROOT/cmd/nevermindgw" || ! -d "$ROOT/internal" ]]; then
    echo "fleetbench: run from the root of a nevermind checkout (go.mod, cmd/, internal/ not found in $ROOT)" >&2
    exit 2
fi

TRACE=0
ARGS=("$@")
for ((i = 0; i < ${#ARGS[@]}; i++)); do
    case "${ARGS[$i]}" in
        --trace | -trace) TRACE="${ARGS[$((i + 1))]:-0}" ;;
        --trace=* | -trace=*) TRACE="${ARGS[$i]#*=}" ;;
    esac
done

BUILD="$ROOT/.bench_build"
BIN="$BUILD/fleetbench/bin"
mkdir -p "$BIN" "$BUILD/config"
export GOCACHE="$BUILD/gocache" GOPATH="$BUILD/gopath" GOMODCACHE="$BUILD/gopath/pkg/mod"
export XDG_CONFIG_HOME="$BUILD/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -o "$BIN/" ./cmd/nevermindd ./cmd/nevermindgw
(cd "$ROOT/fleetbench" && go build -o "$BIN/loadgen" ./loadgen)
if [[ "$TRACE" == "1" ]]; then
    (cd "$ROOT/fleetbench" && go build -o "$BIN/ladder" ./ladder)
fi

if COMMIT="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null)"; then
    :
else
    COMMIT="tree-$( (find go.mod cmd internal -type f -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs sha256sum) | sha256sum | cut -c1-16)"
fi
export FLEETBENCH_COMMIT="$COMMIT"

exec "$BIN/loadgen" -bin "$BIN" -ladder "$BIN/ladder" -work "$BUILD/fleetbench" "$@"
