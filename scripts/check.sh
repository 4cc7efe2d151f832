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
# surfaces: TestCrossProcessTrace (one span tree across processes, and
# the analysis daemon's /debug/flight holding its epvf-serve spans) and
# TestDashboardStallFiresAndResolves (alert fire, /healthz degrade,
# profile capture and resolve on a coordinator's dashboard).
# ./cmd/epvf/... runs `epvf diff` and `epvf gate` end to end: TestDiffCmd,
# TestGateCmd and TestGateMatchesAnalyzeModule.
echo "== go test -race (obs/... with ts and alert + dashboard + campaign + dist + snapshot + mem + fi + attr + cache + inc + serve + vm + rangeprop + trace + traced CLIs)"
go test -race ./internal/obs/... \
    ./internal/dashboard/... ./internal/campaign/... ./internal/dist/... \
    ./internal/snapshot/... ./internal/mem/... ./internal/fi/... ./internal/attr/... \
    ./internal/cache/... ./internal/inc/... ./internal/serve/... ./internal/vm/... \
    ./internal/rangeprop/... ./internal/trace/... \
    ./cmd/epvf/... ./cmd/campaign/...

# The only checks that VM-native snapshots match walker scratch runs:
# TestDifferentialResume (injected resumes from every chain snapshot) and
# TestSnapshotRunnerMatchesWalkerScratch (whole runners on every kernel
# and 20 random programs). TestDifferentialEdgeCases also runs the IR
# modules MiniC never emits, which the VM once left to the walker: a phi
# in an entry block, a 4.8 GB GEP stride, and frames over 4 GiB and over
# the stack pointer; and a compare read beyond its block's branch and an
# address feeding a load and other users.
# FuzzDifferentialIR runs its seed corpus: the kernels' and the edge-case
# modules' printed IR, each with one injection. TestCheckpointsAtStridePoints
# pins where Program.Checkpoints captures: exactly at each stride point,
# unless it falls inside a phi group, where the capture takes the group's
# first event; TestLuleshSnapshotViewPinned pins a 128-run lulesh
# runner's chain stats, so placement cannot drift unseen.
# TestDifferentialSavedTraces
# takes the kernels, the edge cases and 20 random programs through the
# saved trace format: both engines' recordings save to the same bytes,
# Load then Save writes them again, and the loaded trace analyzes
# identically. TestLivenessMatchesPathSearch checks the live register
# slots the convergence check compares, at every pc of every function of
# the kernels, 20 random programs and the IR edge cases, against a
# per-slot search over the IR's paths; TestConvergedResumeMatchesScratch
# checks, run by run on mm, bfs, lulesh, 20 random programs and a loop
# that can hang, that a run resumed with convergence returns its scratch
# run's record, outputs, exception and event count, and that Executed
# counts what the resumed run retired itself. The VM's memory fast path
# (two VMA-bounds entries, the 4-entry load and store page caches, word
# accesses) is checked against the reference path by TestFastPath*,
# including loads and stores over pages that collide in the page caches
# and writes through cached pages after a fork. TestDifferentialTypedOps
# runs the VM's width-specialized vops against the walker event by event:
# every conversion opcode on every (from, to) type pair the IR accepts
# (i1, i8, i16, i24, i32, i56, i64, float, double, a pointer) and every
# float arithmetic and compare op at 32 and 64 bits, on edge values
# (sign bits, all ones, NaNs, infinities, -0, floats beyond the fptosi
# clamp); TestDifferentialAlignedAccesses runs loads and stores of every
# scalar width at every offset under each alignment policy, which the VM
# fixes once per run. TestJumpSourceMatchesMathRand checks Draw's
# jump-ahead source against rand.NewSource, 2,000 values per seed (past
# the 273 it jumps to, so its fallback runs), and TestDrawMatchesFreshSource
# checks whole draws (edge seeds, 1- to 64-bit faults, with and without
# jitter) against a fresh rand.NewSource per run. The alignment test
# includes the i24, i40, i48 and i56 accesses whose 3- to 7-byte
# alignments take the VM's modulo check instead of its mask.
# TestReleaseRecyclesOnlyUnsharedPages checks that a released fork gives
# back only pages no other space holds, that its sibling still copies on
# write, that refs counts the holders and that a recycled fresh page reads
# zero. TestPooledRunsMatchFresh checks pooled machines, frames and pages:
# a shuffled mix of scratch and resumed runs on one program, under two
# alternating layouts, on the kernels and 20 random programs, equals the
# same runs on freshly compiled programs. TestFinishedRunnerFreesChain
# checks that the machine pool keeps no finished runner's checkpoints
# alive through a collection.
echo "== vm differential smoke (walker vs bytecode VM: kernels, edge cases incl. IR entry-block phi / 4.8 GB GEP stride / frames over 4 GiB / shared icmp and gep results, saved-trace round trips of kernels, edge cases and random programs, fuzz corpus seeds of MiniC and of IR, snapshot resumes, checkpoint placement and pinned lulesh chain stats, convergence liveness vs path search, snapshot runners, converged resumes vs scratch runs; pooled vs fresh machines, frames and pages; finished runners free their chains; mem fast path vs reference path incl. page-cache collisions and writes after fork; released pages recycled only when unshared; width-specialized conversion and float vops and per-run alignment rules vs the walker incl. i24 to i56 accesses at odd alignments; jump-ahead draw source and draws vs fresh math/rand sources)"
go test ./internal/vm/ -run 'TestDifferentialKernels|TestDifferentialEdgeCases|TestDifferentialSavedTraces|FuzzDifferential|FuzzDifferentialIR|TestDifferentialResume|TestCheckpointsAtStridePoints|TestLivenessMatchesPathSearch|TestPooledRunsMatchFresh|TestDifferentialTypedOps|TestDifferentialAlignedAccesses' -count=1
go test ./internal/mem/ -run 'TestFastPath|TestReleaseRecyclesOnlyUnsharedPages' -count=1
go test ./internal/fi/ -run 'TestSnapshotRunnerMatchesWalkerScratch|TestConvergedResumeMatchesScratch|TestLuleshSnapshotViewPinned|TestJumpSourceMatchesMathRand|TestDrawMatchesFreshSource|TestDrawAllocatesNothing|TestFinishedRunnerFreesChain' -count=1

# The durable campaign log. TestLogBytesPinned pins the SHA-256 of a
# one-worker log (header, run, shard_done, stop and attr records) and of
# the merge of two shard logs, so a change to what DurableLog, the one
# writer, puts in a file fails here. FuzzReadLog's seeds (a real log, a
# torn one, a 1e18-run header and each corruption) run ReadLog, status
# and merge; FuzzResultsBody's seeds deliver shard bodies to a dist
# coordinator and reopen its log.
echo "== campaign log smoke (pinned log and merge bytes; ReadLog, status and merge fuzz seeds; coordinator delivery fuzz seeds)"
go test ./internal/campaign/ -run 'TestLogBytesPinned|FuzzReadLog' -count=1
go test ./internal/dist/ -run 'FuzzResultsBody' -count=1

# The benchmark's selftest: every workload runs once at a small size and
# its pinned digests and deterministic counts must match.
echo "== perfbench selftest"
bash perfbench/run.sh --selftest

echo "check: OK"
