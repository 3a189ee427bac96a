#!/usr/bin/env bash
# Same-bytes check: do the drills and benches that pin the pipeline's
# verdicts print the same standard output at a git ref and on the working
# tree?
#
# Usage: scripts/same_bytes.sh <git-ref>
#
# Builds <ref> (exported with `git archive`) and the working tree, both in
# Release, under one temporary directory, and runs every program in RUNS
# from a scratch working directory there (fault_drill writes its trace dump
# into the working directory). Each run's whole standard output is
# compared, plus its exit status; none of these programs prints a
# wall-clock time. Prints one line per run; exits 1 on any difference, keeping the
# temporary directory (its path is printed) so the outputs can be diffed,
# and 0 otherwise, removing it. Writes nothing in the repository. The
# slowest runs are production_campaign and shard_drill; the whole check
# takes several minutes.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <git-ref>" >&2
  exit 2
fi
ref="$1"
root="$(cd "$(dirname "$0")/.." && pwd)"
git -C "$root" rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
  echo "same_bytes: unknown git ref '$ref'" >&2
  exit 2
}

# The compared runs, one per line: a program under the build tree, then
# its arguments.
RUNS='examples/shard_drill
examples/spray_drill
examples/collective_drill
examples/collective_drill --silent-hang-gate
examples/collective_drill --corroboration-gate
examples/collective_drill --determinism-gate
examples/fault_drill
examples/fault_drill --churn-gate
examples/fault_drill --telemetry-gate
examples/fault_drill --forensic-gate
examples/quickstart
examples/moe_training
bench/bench_accuracy
bench/bench_ablation_constraints
bench/bench_fig18_casestudy
bench/bench_table1_issues
bench/bench_fig07_bursts
bench/bench_fig13_stft
bench/bench_fig15_probe_scale
bench/bench_fig16_probe_time
bench/bench_fig17_agent_overhead
bench/bench_ablation_activation
examples/production_campaign
bench/bench_verdict_latency'

tmp="$(mktemp -d "${TMPDIR:-/tmp}/same_bytes.XXXXXX")"
targets="$(printf '%s\n' "$RUNS" | awk '{ sub(".*/", "", $1); print $1 }' |
  sort -u | tr '\n' ' ')"

build() {  # <source dir> <build dir>: output kept in <build dir>.log
  {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
      # shellcheck disable=SC2086  # one word per target
      cmake --build "$2" -j "$(nproc)" --target $targets
  } >"$2.log" 2>&1 || {
    cat "$2.log" >&2
    echo "same_bytes: build of $1 failed" >&2
    exit 1
  }
}

mkdir -p "$tmp/ref-src"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref-src"
echo "same_bytes: building $ref and the working tree in $tmp"
build "$tmp/ref-src" "$tmp/ref"
build "$root" "$tmp/work"

run_one() {  # <side> <program> [args...]: stdout and exit status
  local side="$1" prog="$2" rc=0
  shift 2
  mkdir -p "$tmp/run-$side"
  (cd "$tmp/run-$side" && "$tmp/$side/$prog" "$@") 2>/dev/null || rc=$?
  echo "exit status $rc"
}

status=0
while IFS= read -r run; do
  name="$(printf '%s' "$run" | tr ' /' '__')"
  # shellcheck disable=SC2086  # program and arguments split on spaces
  run_one ref $run >"$tmp/ref.$name.out" &
  # shellcheck disable=SC2086
  run_one work $run >"$tmp/work.$name.out"
  wait $!
  if cmp -s "$tmp/ref.$name.out" "$tmp/work.$name.out"; then
    echo "same      $run"
  else
    echo "DIFFERENT $run  (diff $tmp/ref.$name.out $tmp/work.$name.out)"
    status=1
  fi
done <<EOF
$RUNS
EOF

if [ "$status" -eq 0 ]; then
  rm -rf "$tmp"
  echo "same_bytes: every run matches $ref"
else
  echo "same_bytes: differences against $ref; outputs kept in $tmp"
fi
exit "$status"
