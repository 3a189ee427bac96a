#!/usr/bin/env bash
# Documentation rot check, wired into ctest as `docs.module_map`.
#
# Fails when a src/<subsystem>/ directory is missing from ARCHITECTURE.md's
# module map, when a bench_* target is missing from README.md's
# figure-mapping table, or when ARCHITECTURE.md, README.md or EXPERIMENTS.md
# names a gtest `Suite.Test` that no test under tests/ defines — so adding
# a subsystem or bench without documenting it, or renaming a test the docs
# cite as proof, breaks the default test run.
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
arch="$root/ARCHITECTURE.md"
readme="$root/README.md"
status=0

if [[ ! -f "$arch" ]]; then
  echo "FAIL: $arch does not exist"
  exit 1
fi

for dir in "$root"/src/*/; do
  name="$(basename "$dir")"
  if ! grep -q "src/$name" "$arch"; then
    echo "FAIL: src/$name/ is missing from ARCHITECTURE.md's module map"
    status=1
  fi
done

# The ingest hot path's memory layout is a documented contract, not an
# implementation detail: the flat pair table must appear in the module
# map, and the layout section itself must exist (tests and benches pin
# behavior against it).
if ! grep -q "common/flat_table" "$arch"; then
  echo "FAIL: common/flat_table is missing from ARCHITECTURE.md's module map"
  status=1
fi
if ! grep -q "^## Memory layout & hot path" "$arch"; then
  echo "FAIL: ARCHITECTURE.md is missing the 'Memory layout & hot path' section"
  status=1
fi

# Sharding's identity contract is likewise documented, not incidental:
# the sharded detector must appear in the module map and the section
# describing the invariance mechanisms must exist (shard.identity_gate
# and the unit suites pin behavior against it).
if ! grep -q "core/sharded_detector" "$arch"; then
  echo "FAIL: core/sharded_detector is missing from ARCHITECTURE.md's module map"
  status=1
fi
if ! grep -q "^## Sharded analyzer" "$arch"; then
  echo "FAIL: ARCHITECTURE.md is missing the 'Sharded analyzer' section"
  status=1
fi

# The observability plane's contracts (recorder bounds, latency-stage
# definitions, exposition format) are documented sections, not folklore:
# tests/obs and the forensic/overhead gates pin behavior against them.
if ! grep -q "^### Flight recorder" "$arch"; then
  echo "FAIL: ARCHITECTURE.md is missing the 'Flight recorder' section"
  status=1
fi
if ! grep -q "^### Ingest-to-verdict latency plane" "$arch"; then
  echo "FAIL: ARCHITECTURE.md is missing the 'Ingest-to-verdict latency plane' section"
  status=1
fi
if ! grep -q "^### Exposition format" "$arch"; then
  echo "FAIL: ARCHITECTURE.md is missing the 'Exposition format' section"
  status=1
fi
if ! grep -q "obs/pull_server\|metrics_server" "$arch" || \
   ! grep -q "latency.ingest_to_verdict_s" "$arch"; then
  echo "FAIL: ARCHITECTURE.md's Observability section lost the endpoint or latency-metric names"
  status=1
fi

# Routing and path diversity are documented contracts as well: the routing
# modes, the path-id stability rule, and the per-path detection/voting
# chain live in a section the spray suites and spray.localization_gate pin
# behavior against — as does the drill's writeup in EXPERIMENTS.md.
if ! grep -q "^## Routing & path diversity" "$arch"; then
  echo "FAIL: ARCHITECTURE.md is missing the 'Routing & path diversity' section"
  status=1
fi
experiments="$root/EXPERIMENTS.md"
if [[ ! -f "$experiments" ]]; then
  echo "FAIL: $experiments does not exist"
  status=1
else
  if ! grep -q "^## Path-blindness drill" "$experiments" || \
     ! grep -q "spray.localization_gate" "$experiments"; then
    echo "FAIL: EXPERIMENTS.md is missing the path-blindness (spray) drill section"
    status=1
  fi
  if ! grep -q "^## Network-silent hang drill" "$experiments" || \
     ! grep -q "collective.silent_hang_gate" "$experiments"; then
    echo "FAIL: EXPERIMENTS.md is missing the network-silent hang drill section"
    status=1
  fi
fi

# The second signal plane is a documented contract too: the step-trace
# generator must appear in the module map and the section covering the
# hang/slow verdicts and cross-plane corroboration must exist (the
# collective.* gates and tests/collective pin behavior against it).
if ! grep -q "workload/collective_trace" "$arch"; then
  echo "FAIL: workload/collective_trace is missing from ARCHITECTURE.md's module map"
  status=1
fi
if ! grep -q "^## Collective signal plane" "$arch"; then
  echo "FAIL: ARCHITECTURE.md is missing the 'Collective signal plane' section"
  status=1
fi

if [[ -f "$readme" ]]; then
  for src in "$root"/bench/bench_*.cpp; do
    [[ -f "$src" ]] || continue  # unexpanded glob: no bench sources
    target="$(basename "$src" .cpp)"
    if ! grep -q "$target" "$readme"; then
      echo "FAIL: bench target $target is missing from README.md"
      status=1
    fi
  done
else
  echo "FAIL: $readme does not exist"
  status=1
fi

# A test the docs cite as the pin of a contract must exist: a renamed or
# deleted test leaves a citation no reader can run. Every `Suite.Test` in
# the three documents must match a TEST, TEST_F or TEST_P under tests/.
defined="$(grep -rhoE '^\s*TEST(_F|_P)?\(\s*[A-Za-z0-9_]+\s*,\s*[A-Za-z0-9_]+\s*\)' \
  "$root/tests" |
  sed -E 's/^\s*TEST(_F|_P)?\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)/\2.\3/' |
  sort -u)"
for doc in "$arch" "$readme" "$experiments"; do
  [[ -f "$doc" ]] || continue
  for name in $(grep -oE '\b[A-Z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*\b' "$doc" |
                sort -u); do
    if ! grep -qxF "$name" <<<"$defined"; then
      echo "FAIL: $(basename "$doc") names test $name, which no TEST under tests/ defines"
      status=1
    fi
  done
done

if [[ $status -eq 0 ]]; then
  echo "OK: every src/ subsystem is in ARCHITECTURE.md, every bench is in README.md, and every cited test exists"
fi
exit $status
