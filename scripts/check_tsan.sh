#!/usr/bin/env bash
# ThreadSanitizer gate, wired into ctest as `sanitize.tsan`.
#
# Configures a separate sub-build with -fsanitize=thread (through
# CMAKE_CXX_FLAGS / CMAKE_EXE_LINKER_FLAGS, no project option) and replays
# the suites that run work on a thread pool: the sharded anomaly detector
# (pool jobs ingest into their own shard and bump that shard's plain
# counters; the calling thread reads the counters, merges events and
# publishes the detector.* series only after ThreadPool::wait()), the
# campaign runner and its pool, and the Prometheus scrape-identity checks
# that run whole campaigns at 1/4/16 runner threads and analyzer shards.
# ThreadSanitizer exits 66 after any race report, so a clean exit means
# clean runs.
set -eu

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
bdir="${2:-$root/build-tsan}"

cmake -S "$root" -B "$bdir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build "$bdir" --target test_core test_runner test_obs \
  -j "$(nproc)" >/dev/null
"$bdir/tests/test_core" --gtest_brief=1 --gtest_filter='ShardedDetector.*'
"$bdir/tests/test_runner" --gtest_brief=1
"$bdir/tests/test_obs" --gtest_brief=1 --gtest_filter='PrometheusText.*'
echo "OK: ThreadSanitizer clean on the sharded detector, runner and scrape suites"
