#!/usr/bin/env bash
# Pre-merge gate: build, fast tests, and the perf-regression checks of
# the gated benches against their committed BENCH snapshots.
#
#   tools/ci_check.sh            # fast gate (default)
#   GPM_CI_SLOW=1 tools/ci_check.sh   # also run the slow-labeled suites
#   GPM_CI_TSAN=1 tools/ci_check.sh   # ThreadSanitizer build + fast tests
#   GPM_CI_ASAN=1 tools/ci_check.sh   # ASan+UBSan build + fast tests
#
# GPM_CI_SLOW=1 adds the slow-labeled suites in every mode, sanitizers
# included: the randomized executor differential harnesses (parallel,
# streaming, batch, incremental) are all slow-labeled, so
# GPM_CI_TSAN=1 GPM_CI_SLOW=1 is what runs the multi-threaded ball loops
# under ThreadSanitizer.
#   GPM_CI_UPDATE_BASELINE=1 tools/ci_check.sh   # refresh the snapshots
#
# The perf gates compare each bench in GATED_BENCHES against its
# bench_baselines/<bench>/BENCH_<bench>.json via
# tools/bench_trend.py --fail-on-regression. Wall-clock thresholds are
# machine-dependent, so the gate uses a generous 50% threshold: it exists
# to catch a path falling off a cliff (a cache stops hitting, a batch
# stops sharing, an executor stops scaling), not 5% jitter. Each bench's
# own SHAPE-CHECK lines double as correctness gates.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${GPM_BUILD_DIR:-build}"
GATED_BENCHES=(serving_path regex_scaling incremental_updates serving_load cross_query)

# TSan mode: a separate -DGPM_TSAN=ON build tree running the fast suite
# (which includes the serving concurrency tests — the reason this mode
# exists), plus the slow suite under GPM_CI_SLOW=1. Benches are skipped:
# their wall-clock under TSan says nothing.
if [[ "${GPM_CI_TSAN:-0}" == "1" ]]; then
  TSAN_DIR="${GPM_TSAN_BUILD_DIR:-build-tsan}"
  echo "== TSan configure + build ($TSAN_DIR) =="
  cmake -B "$TSAN_DIR" -S . -DGPM_TSAN=ON >/dev/null
  cmake --build "$TSAN_DIR" -j >/dev/null
  echo "== TSan fast tests (ctest -L fast) =="
  ctest --test-dir "$TSAN_DIR" -L fast --output-on-failure -j "$(nproc)"
  if [[ "${GPM_CI_SLOW:-0}" == "1" ]]; then
    echo "== TSan slow tests (ctest -L slow) =="
    ctest --test-dir "$TSAN_DIR" -L slow --output-on-failure -j "$(nproc)"
  fi
  echo "ci_check: TSan OK"
  exit 0
fi

# ASan+UBSan mode: a separate -DGPM_ASAN=ON build tree running the fast
# suite (plus the slow suite under GPM_CI_SLOW=1) — lifetime/bounds coverage for the lock-free ring and the
# per-worker scratch arenas, which TSan cannot see. Benches are skipped
# for the same reason as under TSan.
if [[ "${GPM_CI_ASAN:-0}" == "1" ]]; then
  ASAN_DIR="${GPM_ASAN_BUILD_DIR:-build-asan}"
  echo "== ASan configure + build ($ASAN_DIR) =="
  cmake -B "$ASAN_DIR" -S . -DGPM_ASAN=ON >/dev/null
  cmake --build "$ASAN_DIR" -j >/dev/null
  echo "== ASan fast tests (ctest -L fast) =="
  ctest --test-dir "$ASAN_DIR" -L fast --output-on-failure -j "$(nproc)"
  if [[ "${GPM_CI_SLOW:-0}" == "1" ]]; then
    echo "== ASan slow tests (ctest -L slow) =="
    ctest --test-dir "$ASAN_DIR" -L slow --output-on-failure -j "$(nproc)"
  fi
  echo "ci_check: ASan OK"
  exit 0
fi

echo "== configure + build =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j >/dev/null

echo "== fast tests (ctest -L fast) =="
ctest --test-dir "$BUILD_DIR" -L fast --output-on-failure -j "$(nproc)"

if [[ "${GPM_CI_SLOW:-0}" == "1" ]]; then
  echo "== slow tests (ctest -L slow) =="
  ctest --test-dir "$BUILD_DIR" -L slow --output-on-failure -j "$(nproc)"
fi

for bench in "${GATED_BENCHES[@]}"; do
  baseline_dir="bench_baselines/$bench"
  snapshot_dir="$BUILD_DIR/bench_json_ci/$bench"
  echo "== $bench bench =="
  rm -rf "$snapshot_dir" && mkdir -p "$snapshot_dir"
  (cd "$snapshot_dir" && "../../../$BUILD_DIR/bench/$bench" > "$bench.log") || {
    cat "$snapshot_dir/$bench.log"
    echo "ci_check: $bench bench failed" >&2
    exit 1
  }
  if grep -q "\[MISS\]" "$snapshot_dir/$bench.log"; then
    cat "$snapshot_dir/$bench.log"
    echo "ci_check: $bench SHAPE-CHECK miss" >&2
    exit 1
  fi

  if [[ "${GPM_CI_UPDATE_BASELINE:-0}" == "1" ]]; then
    mkdir -p "$baseline_dir"
    cp "$snapshot_dir/BENCH_$bench.json" "$baseline_dir/"
    echo "ci_check: baseline refreshed in $baseline_dir"
  elif [[ -d "$baseline_dir" ]]; then
    echo "== bench trend vs $baseline_dir =="
    python3 tools/bench_trend.py --threshold 50 --fail-on-regression \
      "$baseline_dir" "$snapshot_dir"
  else
    echo "ci_check: no baseline in $baseline_dir (run with" \
         "GPM_CI_UPDATE_BASELINE=1 to create one)"
  fi
done

echo "ci_check: OK"
