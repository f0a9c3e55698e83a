#!/bin/sh
# tools/check.sh [default|asan|tsan|all|ci] — configure, build, and run the
# test suite under the named CMake preset (see CMakePresets.json). "all"
# runs the plain preset first, then the address+UB sanitizer preset.
# "tsan" builds the multi-backend smoke test under ThreadSanitizer and runs
# it: the engine's latching (buffer pool stripes, commit log, group
# commit, relation latches — DESIGN.md §13) and the flight recorder's
# span shards are exercised by concurrent backends with every data race a
# hard failure.
#
# After the default-preset tests pass, a benchmark gate runs the paper's
# three figures and the Inversion-vs-native comparison (whose native
# column is the simulated UNIX file system) at --quick (1/10th) scale,
# validates each emitted BENCH_*_quick.json against the pglo-bench-v1
# schema, and compares its simulated times against the checked-in
# baseline in bench/baselines/ bit for bit (bench_compare
# --tolerance=0.0). It then runs Figures 1-3 at full scale (about 10 s in
# all) and compares them bit for bit against the committed root
# BENCH_figure{1,2,3}.json, the files EXPERIMENTS.md quotes. Simulated
# time is deterministic, so any drift is a real behavioural change;
# regenerate the baselines deliberately (see bench/baselines/README.md)
# when one is intended.
#
# An ablation gate then runs all five ablation axes (bench_ablation
# --quick: chunk size, buffer pool, WORM cache, compression, read-ahead)
# and compares each axis's simulated times against its committed baseline
# bit for bit (bench_compare --tolerance=0.0): same code, same numbers.
#
# A crash-recovery gate follows: pglo_crashtest sweeps injected crash
# points through the full workload replay + recovery verification (see
# DESIGN.md §11) — every point in the native build (--all-points), a
# sample (--quick) under the sanitizers. Set PGLO_TEST_SEED to vary the
# seed; the default is the same fixed seed the unit tests use.
#
# An observability gate then proves the flight recorder and the wait
# instrumentation are free: bench_ablation_obs --quick runs the same
# workload with observability off and on, fails unless both report
# bit-identical simulated time (and the default config's wall overhead
# stays within 5%), and compares against the committed baseline.
#
# A fragmentation gate closes the loop on long-horizon churn:
# bench_fragmentation --quick must show sequential reads degrading >= 20%
# after the churn epochs and landing back within 10% of fresh after
# CompactAll + Vacuum, then bench_compare guards its simulated times and
# values against the committed baseline bit for bit (--tolerance=0.0).
#
# A server gate smoke-runs the wire protocol end to end: bench_traffic
# --quick drives dozens of concurrent pglo-wire-v1 clients through an
# in-process PgloServer over loopback (DESIGN.md §16), failing on any
# transaction error; its JSON (and the committed baseline) are
# schema-validated, never numerically compared — latencies are wall clock.
#
# "ci" is the mode for unattended runs (.github/workflows/ci.yml): the full
# "all" sequence, with a per-test ctest timeout so a hung test fails the
# run instead of wedging it. PGLO_TEST_TIMEOUT overrides the default 600 s.
set -eu

cd "$(dirname "$0")/.."

run_preset() {
  preset="$1"
  timeout="${2:-}"
  echo "== preset: $preset =="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  if [ -n "$timeout" ]; then
    ctest --preset "$preset" -j "$(nproc)" --timeout "$timeout"
  else
    ctest --preset "$preset" -j "$(nproc)"
  fi
}

bench_gate() {
  builddir="$1"
  echo "== bench gate: figures 1-3 and inversion vs native --quick vs bench/baselines (exact) =="
  workdir="$(mktemp -d /tmp/pglo_bench_gate_XXXXXX)"
  trap 'rm -rf "$workdir"' EXIT
  for bench in figure1_storage figure2_disk figure3_worm inversion_vs_native; do
    case "$bench" in
      figure*) name="${bench%%_*}" ;;
      *) name="$bench" ;;
    esac
    out="$workdir/BENCH_${name}_quick.json"
    "$builddir/bench/bench_$bench" --quick --json="$out" \
        "$workdir/db_$name" > "$workdir/bench_$name.log"
    "$builddir/tools/bench_compare" --validate "$out"
    "$builddir/tools/bench_compare" --tolerance=0.0 \
        "bench/baselines/BENCH_${name}_quick.json" "$out"
  done
  echo "== bench gate: figures 1-3 at full scale vs BENCH_figure{1,2,3}.json (exact) =="
  for bench in figure1_storage figure2_disk figure3_worm; do
    name="${bench%%_*}"
    out="$workdir/BENCH_${name}.json"
    "$builddir/bench/bench_$bench" --json="$out" \
        "$workdir/db_full_$name" > "$workdir/bench_full_$name.log"
    "$builddir/tools/bench_compare" --validate "$out"
    "$builddir/tools/bench_compare" --tolerance=0.0 "BENCH_${name}.json" "$out"
  done
  rm -rf "$workdir"
  trap - EXIT
}

crashtest_gate() {
  builddir="$1"
  sweep="$2"
  echo "== crashtest gate: pglo_crashtest $sweep (seed ${PGLO_TEST_SEED:-42}) =="
  workdir="$(mktemp -d /tmp/pglo_crash_gate_XXXXXX)"
  trap 'rm -rf "$workdir"' EXIT
  "$builddir/tools/pglo_crashtest" "$sweep" --seed="${PGLO_TEST_SEED:-42}" \
      "$workdir/crashdb"
  rm -rf "$workdir"
  trap - EXIT
}

ablation_gate() {
  builddir="$1"
  echo "== ablation gate: bench_ablation --quick vs bench/baselines (exact) =="
  workdir="$(mktemp -d /tmp/pglo_ablation_gate_XXXXXX)"
  trap 'rm -rf "$workdir"' EXIT
  root="$(pwd)"
  # One run writes every axis's BENCH_ablation_<axis>_quick.json into the
  # current directory.
  (cd "$workdir" && "$root/$builddir/bench/bench_ablation" --quick \
      "$workdir/db" > bench.log)
  for axis in chunksize bufferpool wormcache compression readahead; do
    "$builddir/tools/bench_compare" --tolerance=0.0 \
        "bench/baselines/BENCH_ablation_${axis}_quick.json" \
        "$workdir/BENCH_ablation_${axis}_quick.json"
  done
  rm -rf "$workdir"
  trap - EXIT
}

obs_gate() {
  builddir="$1"
  baseline="bench/baselines/BENCH_ablation_obs_quick.json"
  echo "== obs gate: bench_ablation_obs --quick vs $baseline =="
  workdir="$(mktemp -d /tmp/pglo_obs_gate_XXXXXX)"
  trap 'rm -rf "$workdir"' EXIT
  out="$workdir/BENCH_ablation_obs_quick.json"
  # The bench itself exits non-zero if observability-on simulated time is
  # not bit-identical to observability-off, or if the default config's
  # wall overhead exceeds the gate; bench_compare then guards against
  # drift in the absolute simulated times.
  "$builddir/bench/bench_ablation_obs" --quick --gate-overhead-pct=5 \
      --json="$out" "$workdir/db" > "$workdir/bench.log"
  "$builddir/tools/bench_compare" --validate "$out"
  "$builddir/tools/bench_compare" "$baseline" "$out"
  rm -rf "$workdir"
  trap - EXIT
}

fragmentation_gate() {
  builddir="$1"
  baseline="bench/baselines/BENCH_fragmentation_quick.json"
  echo "== fragmentation gate: bench_fragmentation --quick vs $baseline (exact) =="
  workdir="$(mktemp -d /tmp/pglo_frag_gate_XXXXXX)"
  trap 'rm -rf "$workdir"' EXIT
  out="$workdir/BENCH_fragmentation_quick.json"
  # The bench gates its own shape: churn must degrade sequential reads by
  # >= 20% (the fragmentation problem manifests) and the post-compaction
  # read must land within 10% of the fresh read (online compaction
  # restores locality). bench_compare then requires the absolute simulated
  # times and values to equal the committed baseline's: all are simulated,
  # so deterministic.
  "$builddir/bench/bench_fragmentation" --quick \
      --gate-degradation-pct=20 --gate-restore-pct=10 \
      --json="$out" "$workdir/db" > "$workdir/bench.log"
  "$builddir/tools/bench_compare" --validate "$out"
  "$builddir/tools/bench_compare" --tolerance=0.0 "$baseline" "$out"
  rm -rf "$workdir"
  trap - EXIT
}

concurrency_gate() {
  builddir="$1"
  echo "== concurrency gate: bench_concurrency --quick (schema-validated) =="
  workdir="$(mktemp -d /tmp/pglo_conc_gate_XXXXXX)"
  trap 'rm -rf "$workdir"' EXIT
  out="$workdir/BENCH_concurrency_quick.json"
  # The bench enforces its own wall-clock scaling floor (exit non-zero when
  # 8 backends fail to beat 1 backend by the documented margin). Simulated
  # times under K>1 backends depend on thread interleaving, so the JSON is
  # schema-validated but not compared against a baseline — wall scaling is
  # the gated property here.
  "$builddir/bench/bench_concurrency" --quick --json="$out" \
      "$workdir/db" > "$workdir/bench.log"
  "$builddir/tools/bench_compare" --validate "$out"
  rm -rf "$workdir"
  trap - EXIT
}

server_gate() {
  builddir="$1"
  baseline="bench/baselines/BENCH_traffic_quick.json"
  echo "== server gate: bench_traffic --quick (schema-validated) =="
  workdir="$(mktemp -d /tmp/pglo_server_gate_XXXXXX)"
  trap 'rm -rf "$workdir"' EXIT
  out="$workdir/BENCH_traffic_quick.json"
  # The traffic generator gates its own shape (zero transaction errors
  # across the sweep; the bottom load rung must keep up). Its latencies
  # are wall-clock and machine-dependent, so — as with bench_concurrency —
  # both the fresh output and the committed baseline are schema-validated
  # but never numerically compared.
  "$builddir/bench/bench_traffic" --quick --json="$out" \
      "$workdir/db" > "$workdir/bench.log"
  "$builddir/tools/bench_compare" --validate "$out"
  "$builddir/tools/bench_compare" --validate "$baseline"
  rm -rf "$workdir"
  trap - EXIT
}

tsan_smoke_gate() {
  # Build only the cross-thread smoke tests under ThreadSanitizer and run
  # them directly: a full TSan suite run is 10-20x slower than native.
  # concurrency_test exercises every engine cross-thread path (pool
  # latches, group-commit queue, commit-log sync split, relation latches,
  # session lifecycle); server_test adds the socket server's
  # thread-per-connection paths (accept/serve/stop handshakes, admission
  # control, cross-thread Shutdown, disconnect-abort); buffer_pool_test
  # adds misses that read and flushes that write outside the pool latches
  # while other backends hit their stripes, miss, append and wait on the
  # same in-flight read or write, and dirty victims that freeze the pool
  # under concurrent hits;
  # recorder_test adds backends filing spans in their recorder shards
  # while a reader merges the tail.
  echo "== tsan smoke: concurrency_test + server_test + buffer_pool_test + recorder_test under ThreadSanitizer =="
  cmake --preset tsan
  cmake --build --preset tsan \
      --target concurrency_test server_test buffer_pool_test recorder_test \
      -j "$(nproc)"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      build-tsan/tests/concurrency_test
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      build-tsan/tests/server_test
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      build-tsan/tests/buffer_pool_test
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      build-tsan/tests/recorder_test
}

# The default preset and its gates; "default" stops here. An optional
# per-test ctest timeout is passed to run_preset.
default_sequence() {
  run_preset default "${1:-}"
  bench_gate build
  ablation_gate build
  obs_gate build
  crashtest_gate build --all-points
  concurrency_gate build
  fragmentation_gate build
  server_gate build
}

# The "all" and "ci" sequence: the default one, then the sanitizers.
full_sequence() {
  default_sequence "${1:-}"
  run_preset asan "${1:-}"
  crashtest_gate build-asan --quick
  tsan_smoke_gate
}

case "${1:-default}" in
  default)
    default_sequence
    ;;
  asan)
    run_preset asan
    crashtest_gate build-asan --quick
    ;;
  tsan)
    tsan_smoke_gate
    ;;
  all)
    full_sequence
    ;;
  ci)
    # Unattended mode: same coverage as "all", plus per-test timeouts so a
    # hung test fails fast instead of stalling the pipeline.
    full_sequence "${PGLO_TEST_TIMEOUT:-600}"
    ;;
  *)
    echo "usage: $0 [default|asan|tsan|all|ci]" >&2
    exit 2
    ;;
esac
