#!/bin/sh
# Tier-1 verification gate: formatting, vet, build, tests.
# Run from the repository root (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (obs + ts + alert + dashboard + campaign + dist + snapshot + mem + fi + attr + cache + inc + serve + vm + rangeprop + trace + traced CLIs)"
go test -race ./internal/obs/... ./internal/obs/ts/... ./internal/obs/alert/... \
    ./internal/dashboard/... ./internal/campaign/... ./internal/dist/... \
    ./internal/snapshot/... ./internal/mem/... ./internal/fi/... ./internal/attr/... \
    ./internal/cache/... ./internal/inc/... ./internal/serve/... ./internal/vm/... \
    ./internal/rangeprop/... ./internal/trace/... \
    ./cmd/epvf/... ./cmd/campaign/...

echo "== vm differential smoke (walker vs bytecode VM, fuzz corpus seeds)"
go test ./internal/vm/ -run 'TestDifferentialKernels|TestDifferentialEdgeCases|FuzzDifferential' -count=1

echo "check: OK"
