#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then the async
# runtime's concurrency-sensitive tests under ThreadSanitizer and the
# handle-lifetime tests under AddressSanitizer (separate build trees; see
# TFE_SANITIZE in the top-level CMakeLists.txt).
#
#   scripts/tier1.sh [--skip-sanitizers | --tier2 | --profile | --serving]
#
# --tier2 runs the FULL test suite under both sanitizers instead of the
# concurrency-focused subset — slower, but it sweeps every kernel now that
# the drain fuser and the intra-op threadpool put real parallelism under
# ordinary ops.
#
# --serving is the multi-tenant serving gate: build, run the serving +
# donation test subset, then bench_serving under TFE_PROFILE — the exported
# trace must carry batched_run evidence (check_trace.py --require-batching)
# and BENCH_serving.json must clear its gates: batched throughput >= 3x
# unbatched at equal-or-better p99, bitwise-identical per-session outputs,
# and an injected failure poisoning only its own session.
#
# --profile is the observability smoke: build, run bench_fusion,
# bench_distrib, and bench_rnn with TFE_PROFILE set, validate the exported
# Chrome traces (the fusion trace must carry fused_reduce_run,
# dag_fused_run, and program_cache_hit instants, the distrib trace remote
# enqueue/resolve spans, the rnn trace a staged_loop instant proving a
# While kernel iterated), then run the profiler-overhead gate (fails
# above 5%).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
MODE="${1:-}"

echo "==== tier 1: standard build + ctest ===="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

if [[ "$MODE" == "--profile" ]]; then
  TRACE="build/profile_smoke_trace.json"
  echo "==== profile smoke: bench_fusion under TFE_PROFILE ===="
  (cd build && TFE_PROFILE="profile_smoke_trace.json" ./bench/bench_fusion)
  python3 scripts/check_trace.py --require-reduce-fusion --require-allocator \
    --require-dag-fusion "$TRACE"
  REMOTE_TRACE="build/profile_smoke_remote_trace.json"
  echo "==== profile smoke: bench_distrib under TFE_PROFILE ===="
  (cd build && TFE_PROFILE="profile_smoke_remote_trace.json" \
    ./bench/bench_distrib)
  python3 scripts/check_trace.py --require-remote "$REMOTE_TRACE"
  LOOP_TRACE="build/profile_smoke_loop_trace.json"
  echo "==== profile smoke: bench_rnn under TFE_PROFILE ===="
  (cd build && TFE_PROFILE="profile_smoke_loop_trace.json" ./bench/bench_rnn)
  python3 scripts/check_trace.py --require-loop "$LOOP_TRACE"
  echo "==== profile smoke: staged-loop bench gates ===="
  python3 - build/BENCH_rnn.json <<'PYEOF'
import json, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
gates = ["gate_staged_loop_3x", "gate_body_cache_90"]
failed = [g for g in gates if metrics.get(g) != 1]
if failed:
    print("rnn staged-loop gates FAILED:", failed)
    print({k: metrics[k] for k in sorted(metrics)
           if not k.startswith("profiler.")})
    sys.exit(1)
print("rnn staged-loop gates ok: %.2fx vs re-tracing, "
      "%.0f%% body-cache hit rate" % (metrics["staged_vs_retrace_speedup"],
                                      100 * metrics["loop_body_cache_hit_rate"]))
PYEOF
  echo "==== profile smoke: overhead gate ===="
  (cd build && ./bench/bench_profiler_overhead)
  echo "==== profile smoke ok ===="
  exit 0
fi

if [[ "$MODE" == "--serving" ]]; then
  echo "==== serving: focused tests ===="
  ./build/tests/tfe_tests --gtest_filter='Serving*:Donation*'
  echo "==== serving: bench_serving under TFE_PROFILE ===="
  TRACE="build/serving_smoke_trace.json"
  (cd build && TFE_PROFILE="serving_smoke_trace.json" ./bench/bench_serving)
  python3 scripts/check_trace.py --require-batching "$TRACE"
  echo "==== serving: bench gates ===="
  python3 - build/BENCH_serving.json <<'PYEOF'
import json, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
gates = ["gate_throughput_3x", "gate_p99_not_worse",
         "bitwise_identical", "failure_isolated"]
failed = [g for g in gates if metrics.get(g) != 1]
if failed:
    print("serving gates FAILED:", failed)
    print({k: metrics[k] for k in sorted(metrics) if not k.startswith("profiler.")})
    sys.exit(1)
print("serving gates ok: %.2fx throughput, p99 %.0fus vs %.0fus, "
      "mean batch %.2f" % (metrics["throughput_speedup"],
                           metrics["batched_p99_us"],
                           metrics["unbatched_p99_us"],
                           metrics["mean_batch_size"]))
PYEOF
  echo "==== serving ok ===="
  exit 0
fi

(cd build && ctest --output-on-failure -j "$JOBS")

if [[ "$MODE" == "--skip-sanitizers" ]]; then
  echo "==== sanitizer passes skipped ===="
  exit 0
fi

if [[ "$MODE" == "--tier2" ]]; then
  # Everything, including the serial kernel tests and the distributed suite
  # (worker service threads + async RPC callbacks are prime TSan territory):
  # sanitizers still catch lifetime bugs there, and the suite is small
  # enough to afford it. The arena would recycle blocks and hide
  # use-after-free behind reuse, so the sweep pins every buffer to a fresh
  # system allocation for byte-level ASan/TSan visibility. (Tests that pin
  # Options::allocator to the arena keep the arena on purpose.)
  FILTER='*'
  export TFE_ALLOCATOR=system
else
  # Concurrency tests only: the async queues, the drain fuser, the
  # threadpool-parallel kernels, the remote dispatch path, the allocator +
  # donation machinery, the profiler's lock-free record/flush, and the
  # staged control-flow paths (While iteration reuses cached execution
  # variants across the executor pool; recursion runs depth-capped nested
  # calls).
  FILTER='Async*:*Async*:Fusion*:ParallelKernels*:MicroProgram*:Profiler*:Remote*:Cluster*:Allocator*:Donation*:ProgramCache*:Serving*:While*:WhileGrad*:Recursion*'
fi

echo "==== tsan: filter=$FILTER ===="
cmake -B build-tsan -S . -DTFE_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target tfe_tests
TSAN_OPTIONS="halt_on_error=1" \
  ./build-tsan/tests/tfe_tests --gtest_filter="$FILTER"

echo "==== asan: filter=$FILTER ===="
cmake -B build-asan -S . -DTFE_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" --target tfe_tests
ASAN_OPTIONS="detect_leaks=1" \
  ./build-asan/tests/tfe_tests --gtest_filter="$FILTER"

if [[ "$MODE" == "--tier2" ]]; then
  # Staged control flow: While iterations drive the executor pool through a
  # cached body variant, the While gradient replays staged backwards off
  # per-iteration snapshot stacks, and recursion nests depth-capped Calls —
  # all lifetime-sensitive paths worth a dedicated sweep.
  CF_FILTER='CondTest*:WhileTest*:WhileGradTest*:RecursionTest*'
  echo "==== tsan: control-flow subset ===="
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/tfe_tests --gtest_filter="$CF_FILTER"
  echo "==== asan: control-flow subset ===="
  ASAN_OPTIONS="detect_leaks=1" \
    ./build-asan/tests/tfe_tests --gtest_filter="$CF_FILTER"
fi

echo "==== tier 1 ok ===="
