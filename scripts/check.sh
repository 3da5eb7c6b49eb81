#!/bin/sh
# Full pre-commit gate: format, vet, lint, build, and the complete test
# suite under the race detector (concurrent requests and the shard
# coordinator are only trustworthy race-clean). Mirrors the CI lint +
# race-vet jobs so a clean local run predicts a green pipeline.
#
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go vet =="
go vet ./...
# The faultinject tag flips on strict injection-point checking; vetting
# that build keeps the chaos harness compiling even when no test uses it.
go vet -tags faultinject ./...
echo "== ksplint =="
# Determinism, obs nil-safety, locks, context propagation, dropped errors
# and metric naming (DESIGN.md §12). ksplint also audits the
# //ksplint:ignore comments: a suppression that no longer suppresses
# anything fails the gate alongside ordinary findings, under both
# build-tag sets.
go run ./cmd/ksplint ./...
go run ./cmd/ksplint -tags faultinject ./...
echo "== go build =="
go build ./...
echo "== go test -race =="
go test -race ./...
go test -race -tags faultinject ./...
echo "== TQSP kernel + Mq bitsets + alpha table + alpha build guards (race-free) =="
# The race run above already covers the differential tests (TQSP kernel,
# α table with keywords mixed from columns and lists, and the map-free α
# build of the column-or-list files against its map-based reference —
# TestBuildMatchesReference and siblings at GOMAXPROCS 1 and 4, which is
# where two workers writing nibbles of one byte would be reported, next to
# TestFillBlocksStartOnEvenOrdinals), the BFS work guard and the α build's
# allocation guard; the warm zero-allocation half of
# TestBoundsZeroAllocWarm holds only without the race detector, so the set
# runs once more plain, exactly as CI's bench-guard job does. The Mq.ψ
# bitset tests (the masks against the posting lists, pool reuse across
# list and bitset keywords, the hybrid document index against an all-list
# build) ride along, as they do in CI, plain here and under -race above,
# and so do the screen's TQSP-count guard, the per-query
# algorithm count order with its pinned per-fixture work sums, and
# EXPLAIN's rule flags against the run.
go test -run 'TestDiscoveryTimeBFSMatchesPopTime|TestBFSWorkGuard|TestMqMatchesPostings|TestDenseMQRecycling|TestScreenReducesConstructions|TestAlgorithmCountOrder|TestExplainRulesMatchRun' ./internal/core/
go test -run 'TestFromGraphMatchesAllListBuild' ./internal/invindex/
go test ./internal/alpha/
echo "== benchmark module =="
# benchmark/ is a module of its own (./... does not reach it): it must
# at least compile and pass its smoke test against the code it measures.
go vet -C benchmark .
go test -C benchmark ./...
echo "OK"
