#!/bin/sh
# bench_compare's exact mode: at --tolerance=0.0 any change in a row's
# simulated seconds fails — a faster row, and one less than 1% faster,
# included — while identical files pass. A nonzero tolerance still lets
# faster rows through.
#
# usage: bench_compare_test.sh PATH/TO/bench_compare
set -u
tool="$1"
dir="$(mktemp -d "${TMPDIR:-/tmp}/bench_compare_test_XXXXXX")"
trap 'rm -rf "$dir"' EXIT

# doc FILE READ_SECONDS: a two-row pglo-bench-v1 file.
doc() {
  printf '{"schema":"pglo-bench-v1","bench":"t","quick":true,"configs":[{"name":"c"}],"results":[{"config":"c","op":"read","simulated_seconds":%s},{"config":"c","op":"write","simulated_seconds":2.5}]}\n' \
      "$2" > "$dir/$1"
}
doc base.json 1.25
doc same.json 1.25
doc faster.json 0.75
doc slightly_faster.json 1.2499
doc slower.json 1.2500001

status=0
# expect EXIT_CODE ARGS...: runs bench_compare ARGS and checks its exit.
expect() {
  want="$1"
  shift
  "$tool" "$@" > "$dir/out" 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: bench_compare $* exited $got, want $want"
    cat "$dir/out"
    status=1
  fi
}
expect 0 --tolerance=0.0 "$dir/base.json" "$dir/same.json"
expect 1 --tolerance=0.0 "$dir/base.json" "$dir/faster.json"
expect 1 --tolerance=0.0 "$dir/base.json" "$dir/slightly_faster.json"
expect 1 --tolerance=0.0 "$dir/base.json" "$dir/slower.json"
expect 0 --tolerance=0.10 "$dir/base.json" "$dir/faster.json"
[ "$status" -eq 0 ] && echo "bench_compare exact mode: OK"
exit "$status"
