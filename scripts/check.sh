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

# The benchmark is a separate module (repro/perfbench), which the root
# ./... patterns skip; vet it so an API break shows here, not at run time.
echo "== go vet (perfbench)"
(cd perfbench && go vet .)

# The benchmark's own unit tests (the tail rule behind op_tail_ms); -short
# skips its selftest, which the last step runs.
echo "== go test (perfbench)"
(cd perfbench && go test -short .)

echo "== go build"
go build ./...

echo "== go test"
go test ./...

# ./cmd/campaign/... carries the end-to-end checks of the CLIs' live
# surfaces: TestCrossProcessTrace (one span tree across processes) and
# TestDashboardStallFiresAndResolves (alert fire, /healthz degrade,
# profile capture and resolve on a coordinator's dashboard).
echo "== go test -race (obs + ts + alert + dashboard + campaign + dist + snapshot + mem + fi + attr + cache + inc + serve + vm + rangeprop + trace + traced CLIs)"
go test -race ./internal/obs/... ./internal/obs/ts/... ./internal/obs/alert/... \
    ./internal/dashboard/... ./internal/campaign/... ./internal/dist/... \
    ./internal/snapshot/... ./internal/mem/... ./internal/fi/... ./internal/attr/... \
    ./internal/cache/... ./internal/inc/... ./internal/serve/... ./internal/vm/... \
    ./internal/rangeprop/... ./internal/trace/... \
    ./cmd/epvf/... ./cmd/campaign/...

# The only checks that VM-native snapshots match walker scratch runs:
# TestDifferentialResume (injected resumes from every chain snapshot) and
# TestSnapshotRunnerMatchesWalkerScratch (whole runners on every kernel
# and 20 random programs).
echo "== vm differential smoke (walker vs bytecode VM: fuzz corpus seeds, snapshot resumes, snapshot runners)"
go test ./internal/vm/ -run 'TestDifferentialKernels|TestDifferentialEdgeCases|FuzzDifferential|TestDifferentialResume' -count=1
go test ./internal/fi/ -run 'TestSnapshotRunnerMatchesWalkerScratch' -count=1

# The benchmark's selftest: every workload runs once at a small size and
# its pinned digests and deterministic counts must match.
echo "== perfbench selftest"
bash perfbench/run.sh --selftest

echo "check: OK"
