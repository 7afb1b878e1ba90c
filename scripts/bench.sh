#!/bin/sh
# Regenerate the benchmark baseline, or compare a fresh run against it.
#
#   scripts/bench.sh            # rewrite BENCH_baseline.json
#   scripts/bench.sh compare    # run benchmarks, diff against the baseline
#   scripts/bench.sh smoke      # CI gate: hot-path benchmarks at short
#                               # benchtime, fail on >25% allocs/op growth
#                               # (ns/op deltas are printed, not gated)
#
# Run from the repo root. The experiment benchmarks self-scale (see
# -benchscale in bench_test.go), so a full run takes a few minutes; the
# baseline tracks trajectory across PRs, not absolute precision. Its
# ns/op rows compare only with runs on the machine that recorded them;
# speed claims rest on bench/ (bash bench/run.sh), not on this file.
set -eu

cd "$(dirname "$0")/.."
out=BENCH_baseline.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

if [ "${1:-}" = smoke ]; then
	# CI regression smoke: only the hot-path benchmarks (simulator
	# throughput, extent map, volume actor and server, recovery, band
	# cleaner) at a short benchtime. Only allocs/op is gated: it is
	# deterministic, so even a short run on any machine flags a
	# structural regression (an accidentally-always-on probe, a lost
	# scratch buffer re-allocating per op). ns/op against a baseline
	# recorded on another machine fails with no code change, so it is
	# printed for the reader only.
	go test -run='^$' -bench='^(BenchmarkSimulatorThroughput|BenchmarkInsert|BenchmarkInsertFunc|BenchmarkLookup|BenchmarkLookupFunc|BenchmarkFragments|BenchmarkVolumeActor|BenchmarkVolumeTCP|BenchmarkVerifyDir|BenchmarkRecoverDir|BenchmarkBandClean)$' \
		-benchtime=0.3s -benchmem -timeout 10m . ./internal/extmap ./internal/volume ./internal/journal ./internal/stl ./internal/band |
		go run ./scripts/benchjson >"$tmp"
	go run ./scripts/benchjson -compare -gate-allocs 25 -match 'BenchmarkSimulator|internal/extmap|internal/volume|BenchmarkVerifyDir/seq|BenchmarkRecoverDir/seq|BenchmarkBandClean' "$out" "$tmp"
	exit 0
fi

go test -run='^$' -bench=. -benchmem -timeout 30m ./... |
	go run ./scripts/benchjson >"$tmp"

case "${1:-}" in
compare)
	go run ./scripts/benchjson -compare "$out" "$tmp"
	;;
"")
	mv "$tmp" "$out"
	trap - EXIT
	echo "wrote $out"
	;;
*)
	echo "usage: scripts/bench.sh [compare|smoke]" >&2
	exit 2
	;;
esac
