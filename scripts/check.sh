#!/usr/bin/env bash
# Full correctness gate, in escalating order of cost, on three build trees
# (build/, build-tsan/, build-asan/):
#
#   1. tier-1: default build + the full CTest suite minus the long
#      stress binaries (unit, sequential, concurrent, checker unit tests,
#      and the in-tree *_tsan duplicates);
#   2. the schedule-perturbed linearizability stress: perturbed histories
#      from the real trees through the offline checker — including the
#      scan-enabled campaigns (range scans decomposed into per-key
#      observations), the snapshot campaign (MVCC snapshot scans recorded
#      as whole-scan observations and held to single-point atomicity by
#      check_snapshot_scans) and the restart-audit campaign (the
#      versioned write path's capture→lock window perturbed,
#      resume/fallback counters reconciled exactly) — plus the
#      LOT_INJECT_BUG negative controls (tree-only locate, the skipped
#      version bump AND the epoch-skipping snapshot resolution) that must
#      be *rejected*, plus the LOT_FAULT_INJECT campaign (seeded
#      allocation failures and guard stalls with per-phase structural
#      validation and leak accounting);
#   3. the whole-build ThreadSanitizer preset (build-tsan/, iteration
#      counts scaled down by LOT_STRESS_DIVISOR=20): every unit,
#      concurrency and stress binary instrumented, minus the scan, storm
#      and shard campaigns which stages 4, 6 and 7 gate explicitly;
#   4. the scan-enabled linearizability stress under TSan: range walks
#      AND snapshot scans (the resolver's stamp reads, the revive version
#      handoff, the limbo prune) racing rotations, relocations and
#      revive-in-place with every memory access instrumented — the
#      ordered layer's dedicated gate;
#   5. the whole-build AddressSanitizer+LeakSanitizer preset (build-asan/),
#      so heap misuse and leaks gate alongside the race and
#      linearizability checks;
#   6. the chaos storm campaign under TSan: the seeded fault-storm
#      envelope (ramp/hold/release allocation failures + guard-stall
#      swarms + a pinned-epoch straggler) with the overload governor
#      required to degrade and then recover within its documented bound,
#      every access instrumented — the governor's sampling, the storm
#      scheduler's rate updates and the degraded write paths all race by
#      design, and this stage proves they race benignly;
#   7. the sharded-layer gate: the ShardedMap linearizability campaign
#      under TSan (router + k-way merge + per-shard EBR domains, every
#      access instrumented) with its composite-snapshot arm (bounded
#      per-shard snapshot cursors through the whole-scan checker; the
#      sharded torn-snapshot control rides in stage 4), plus the shards=1
#      degenerate-equivalence tests from the default build — the
#      scale-out layer must be both race-free at 4 shards and provably
#      free at 1; then perfbench's own tests (smoke run of all three
#      workloads + both negative controls), so a library change that
#      breaks the benchmark's build or its correctness gate fails here.
#
# A non-linearizable history makes the stress tests dump the complete
# trace + violation witness to $LOT_HISTORY_DUMP; this script pins that
# to an absolute path and surfaces it on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

export LOT_HISTORY_DUMP="${LOT_HISTORY_DUMP:-$PWD/history.txt}"
rm -f "$LOT_HISTORY_DUMP"

STRESS_RE='LoLinearizabilityStress|LoScanStress|LoSnapshotStress|TornSnapshot|LoResumeStress|SeededBug|LoFaultStress|LoStormStress|LoShardStress|DriverCapture'
SCAN_RE='LoScanStress|LoSnapshotStress|RecordedScanTrial'

fail() {
  echo "check.sh: FAILED at stage: $1" >&2
  if [ -f "$LOT_HISTORY_DUMP" ]; then
    echo "check.sh: history artifact: $LOT_HISTORY_DUMP" >&2
    echo "check.sh: --- artifact head ---" >&2
    head -n 12 "$LOT_HISTORY_DUMP" >&2 || true
  fi
  exit 1
}

echo "== stage 1/7: tier-1 build + test =="
cmake -B build -S . >/dev/null || fail "configure"
cmake --build build -j "$(nproc)" >/dev/null || fail "build"
(cd build && ctest --output-on-failure -j "$(nproc)" -E "$STRESS_RE") \
  || fail "tier-1 ctest"

echo "== stage 2/7: perturbed linearizability + fault-injection stress =="
(cd build && ctest --output-on-failure -R "$STRESS_RE") \
  || fail "stress + checker"

echo "== stage 3/7: ThreadSanitizer preset =="
cmake --preset tsan >/dev/null || fail "tsan configure"
cmake --build --preset tsan -j "$(nproc)" >/dev/null || fail "tsan build"
# The explicit -E overrides the preset's own exclude filter, so it must
# re-state the SeededBug exclusion (a result-level negative control)
# alongside the scan, torn-snapshot, storm and shard stress deferrals
# (stages 4, 6 and 7 gate those explicitly).
ctest --preset tsan \
  -E "SeededBug|TornSnapshot|$SCAN_RE|LoStormStress|LoShardStress" \
  || fail "tsan ctest"

echo "== stage 4/7: scan-enabled linearizability stress under TSan =="
# TornSnapshot rides along: the negative control's rejection must also
# hold with every access instrumented and iteration counts scaled down.
ctest --preset tsan -R "$SCAN_RE|TornSnapshot" || fail "tsan scan stress"

echo "== stage 5/7: AddressSanitizer+LeakSanitizer preset =="
cmake --preset asan >/dev/null || fail "asan configure"
cmake --build --preset asan -j "$(nproc)" >/dev/null || fail "asan build"
ctest --preset asan || fail "asan ctest"

echo "== stage 6/7: chaos storm campaign under TSan =="
ctest --preset tsan -R 'LoStormStress' || fail "tsan storm campaign"

echo "== stage 7/7: sharded-layer gate (TSan campaign + degenerate equivalence) =="
ctest --preset tsan -R 'LoShardStress' || fail "tsan sharded stress"
# shards=1 must be indistinguishable from the bare tree on the same op
# tape (default build; these also ran inside stage 1's tier-1 sweep — the
# explicit re-run makes the acceptance criterion a named gate).
(cd build && ctest --output-on-failure -R 'SingleShardEquivalence') \
  || fail "shards=1 degenerate equivalence"
python3 perfbench/test_perfbench.py || fail "perfbench smoke + negative controls"

echo "check.sh: all stages passed"
