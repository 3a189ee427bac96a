#!/usr/bin/env bash
# AddressSanitizer + UBSan gate, wired into ctest as `sanitize.asan_ubsan`.
#
# Configures a separate sub-build with SKH_SANITIZE=ON and replays the
# memory-heaviest suites: common (the lock-protected log sink and the
# FlatPairTable differential fuzz — 20k mixed ops crossing grow rebuilds
# under ASan), ml (the LOF ring's push/pop over a caller-owned block and
# the shared scoring workspace's distance matrix), core (the detector hot path with its
# flattened pair storage and reused buffers,
# the churn degrade/re-infer lifecycle, the traceroute-refinement
# partial-result edge cases in test_localize, the gray-telemetry defense
# paths in test_anomaly, slot recycling after a pair migrates, and
# the detector/hunter snapshot round-trips, and the sharded-detector
# batch partition and sparse event merge, pair migration, snapshot paths,
# the order-learned handle_of successor array read against stale and
# restored ids, and the in-place per-shard window-log sort
# and heap merge in test_sharded_detector),
# obs (per-thread shard cells — including the bound-cell
# pointer-stability and registration-token regression tests — the trace
# ring, the flight recorder's per-pair window rings under wrap and slot
# recycling in test_recorder, the exposition renderer plus the pull
# server's socket/buffer handling in test_exposition, and the forensic
# bundle builder's string assembly over a full drilled experiment in
# test_forensic_bundle), sim (churn plans and
# fault/telemetry episode windows), cluster (the restart/migrate/crash
# deregistration paths), and probe (per-target retry/backoff state plus
# the telemetry channel's drop/dup/reorder/skew buffer juggling in
# test_telemetry), and topo (the equal-cost path enumeration, the
# route_via/static_path_id stability contract, the dense switch-link
# adjacency map, and the 4k-pair ECMP balance sweep in test_topology —
# the routing surface the spray/path-diversity suites lean on),
# workload (the collective step-trace generator's per-iteration schedule
# buffers and the layout/traffic pair generation), and collective (the
# diagnoser's reused per-group scratch vectors — durations, ratio and
# seen arrays, the pending batch slice — exercised across hang latch,
# strike, and reset/copy paths in test_diag). Any
# sanitizer report aborts the binary (-fno-sanitize-recover=all), so a
# clean exit means clean runs.
set -eu

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
bdir="${2:-$root/build-asan}"

suites="test_common test_ml test_core test_obs test_sim test_cluster test_probe test_topo test_workload test_collective"

cmake -S "$root" -B "$bdir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSKH_SANITIZE=ON >/dev/null
# shellcheck disable=SC2086  # word-splitting the target list is the point
cmake --build "$bdir" --target $suites -j "$(nproc)" >/dev/null
for t in $suites; do
  "$bdir/tests/$t" --gtest_brief=1
done
echo "OK: ASan/UBSan clean on $suites"
