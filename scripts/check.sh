#!/usr/bin/env bash
# Full verification: release build + tests + benches, then TSan and
# ASan/UBSan builds of the test suite. Mirrors what CI should run.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
# Release repeat leg, the first slice of a load leg: these suites run
# their single-threaded timing tests on the manual clock, so they must
# hold under a saturated machine.
ctest --test-dir build -j$((4*$(nproc))) --repeat until-fail:20 \
    -R '^(TierHealthTest|RateLimiterTest|FaultyEngineTest|ClockTest)\.'

cmake -B build-tsan -G Ninja -DMONARCH_SANITIZE=thread \
      -DMONARCH_BUILD_BENCHMARKS=OFF -DMONARCH_BUILD_EXAMPLES=OFF
cmake --build build-tsan
# The observability, placement, staging-pipeline, resilience, peer-
# cache, churn, and checkpoint suites are the concurrency-critical ones:
# they assert the lock-free metrics hot path, the tracer's export-vs-
# writer race, the two-lane staging queue (demand priority, promotion,
# in-flight caps, buffer pool), the circuit-breaker state machine under
# concurrent readers, the cluster file directory's register/lookup/evict
# and membership-retraction races, the re-staging pumps draining while
# membership flips, the checkpoint drain lane racing Save/Flush/
# recovery, and the packing tier's chunk-map claim/publish/evict races
# under concurrent readers (and the pack x peer rung's publish/retract
# ordering), and the QoS fair queue / bandwidth
# broker / admission controller / rate limiter racing concurrent
# acquirers and waiters stay TSan-clean (docs/OBSERVABILITY.md,
# DESIGN.md "Failure model", "Cooperative peer cache", "Cluster failure
# model", "Checkpoint write-back", "Small-file packing & chunk
# staging").
# One list feeds both legs, so a suite added here is never missed by the
# rest-of-suite leg. scripts/tsan.supp says why its one entry is there.
tsan_suites='MetricsRegistry*:EventTracer*:DocCatalogue*:ConfigDoc*:PlacementHandler*:Eviction*:StagingPipeline*:BufferPool*:Monarch*:Resilience*:TierHealth*:Peer*:FileDirectory*:NetworkModel*:Cluster*:Churn*:Membership*:Restage*:Ckpt*:Checkpoint*:WriteAtFallback*:ReadRing*:ReadLease*:Pack*:PackPeer*:Chunk*:Cleanup*:Qos*:FairQueue*:Admission*:RateLimiter*'
export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp ${TSAN_OPTIONS:-}"
./build-tsan/tests/monarch_tests --gtest_filter="$tsan_suites"
# ... and the rest of the suite.
./build-tsan/tests/monarch_tests --gtest_filter="-$tsan_suites"

cmake -B build-asan -G Ninja -DMONARCH_SANITIZE=address \
      -DMONARCH_BUILD_BENCHMARKS=OFF -DMONARCH_BUILD_EXAMPLES=OFF
cmake --build build-asan
./build-asan/tests/monarch_tests
# Repeat leg: the ring's batch sort, the pack x peer rung and chunk
# staging race placement and eviction, and the placement handler's one
# claim/copy/drop path serves every staged chunk (whole-file mode's one
# chunk and pack chunks) for staging, prestage, eviction, quarantine and
# cleanup; one pass rarely hits the window.
./build-asan/tests/monarch_tests \
    --gtest_filter='ReadRing*:PackPeer*:Chunk*:PlacementHandler*:Eviction*:Cleanup*:QosPlacement*:ResilienceLadder*:StagingPipeline*:Prestage*' \
    --gtest_repeat=20

echo "benches (quick pass):"
MONARCH_BENCH_RUNS=1 MONARCH_BENCH_SCALE=0.15 MONARCH_BENCH_EPOCHS=2 \
  bash -c 'for b in build/bench/*; do "$b"; done' > /dev/null
echo "ALL CHECKS PASSED"

# Code size, so a change can state its src/ and tools/ line deltas.
for dir in src tools; do
  lines=$(find "$dir" -name '*.h' -o -name '*.cc' -o -name '*.cpp' |
          xargs cat | wc -l)
  echo "lines of .h/.cc/.cpp in $dir/: $lines"
done
