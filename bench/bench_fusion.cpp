// Cross-op fusion on the op-queue drain + threadpool-parallel kernels.
//
// Two headline measurements, both real wall time on the host CPU:
//
//   * a 256-op elementwise chain dispatched asynchronously, with drain
//     fusion on vs. off — fusion collapses the whole run into one
//     FusedElementwise kernel launch, so the per-op queue/handle overhead
//     is paid once instead of 256 times;
//   * a 512x512x512 MatMul with the intra-op threadpool on vs. off —
//     sharded by row block, bitwise identical to the serial product.
//
//   build/bench/bench_fusion
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "tensor/allocator.h"
#include "tensor/tensor_handle.h"

using tfe::Tensor;
namespace ops = tfe::ops;
namespace bench = tfe::bench;
namespace profiler = tfe::profiler;

namespace {

constexpr int kChainOps = 256;
constexpr int kChainIterations = 20;

// Wall seconds for `iterations` async 256-op chains, draining at the end of
// each chain so queue depth stays bounded and every run is fully executed.
double ChainSeconds(bool fuse) {
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  ctx->set_fuse_elementwise(fuse);
  ctx->set_async(true);
  Tensor x = ops::random_normal({256, 256}, 0, 1, /*seed=*/7);
  Tensor half = ops::scalar<float>(0.5f);
  auto step = [&] {
    Tensor h = x;
    for (int i = 0; i < kChainOps / 2; ++i) {
      h = ops::mul(ops::add(h, x), half);
    }
    ctx->SyncAllDevices();
  };
  step();  // warm-up: queue threads, allocator
  double seconds = bench::MeasureWallSeconds(step, kChainIterations);
  ctx->set_async(false);
  ctx->set_fuse_elementwise(true);
  return seconds;
}

// Same protocol as ChainSeconds, but every fourth op is a cast: an int32
// tensor enters the float run through ops::cast, which the drain fuser folds
// as a kCast micro-op instead of cutting the run at each dtype boundary.
// (Scalar casts fold too, as broadcast foreign operands.)
double CastChainSeconds(bool fuse) {
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  ctx->set_fuse_elementwise(fuse);
  ctx->set_async(true);
  Tensor x = ops::random_normal({256, 256}, 0, 1, /*seed=*/7);
  Tensor half = ops::scalar<float>(0.5f);
  Tensor xi =
      ops::cast(ops::mul(x, ops::scalar<float>(8.0f)), tfe::DType::kInt32);
  ctx->SyncAllDevices();  // xi concrete before the measured window
  auto step = [&] {
    Tensor h = x;
    for (int i = 0; i < kChainOps / 4; ++i) {
      h = ops::mul(ops::add(h, x), half);
      h = ops::sub(h, ops::cast(xi, tfe::DType::kFloat32));
    }
    ctx->SyncAllDevices();
  };
  step();  // warm-up
  double seconds = bench::MeasureWallSeconds(step, kChainIterations);
  ctx->set_async(false);
  ctx->set_fuse_elementwise(true);
  return seconds;
}

// A chain where every other op changes layout or broadcasts: add-bias
// ({256} against {256,256}), transpose, relu, transpose, repeated. The
// fuser folds Transpose as an indexed-load micro-op and the bias broadcast
// as a strided operand, so the whole interleaved chain still forms long
// runs instead of cutting at every shape change.
double LayoutChainSeconds(bool fuse) {
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  ctx->set_fuse_elementwise(fuse);
  ctx->set_async(true);
  Tensor x = ops::random_normal({256, 256}, 0, 1, /*seed=*/7);
  Tensor bias = ops::random_normal({256}, 0, 1, /*seed=*/11);
  auto step = [&] {
    Tensor h = x;
    for (int i = 0; i < kChainOps / 4; ++i) {
      h = ops::add(h, bias);
      h = ops::transpose(h, {1, 0});
      h = ops::relu(h);
      h = ops::transpose(h, {1, 0});
    }
    ctx->SyncAllDevices();
  };
  step();  // warm-up
  double seconds = bench::MeasureWallSeconds(step, kChainIterations);
  ctx->set_async(false);
  ctx->set_fuse_elementwise(true);
  return seconds;
}

// A 63-op elementwise chain ending in a full reduce_sum: one op short of the
// 64-member run cap so the reduction epilogue rides in the same run. Fused,
// the drain executes the whole thing as a single blocked map-reduce pass —
// no intermediate tensors at all; unfused it is 64 kernel launches and 63
// materialized 256KB temporaries.
constexpr int kReduceChainOps = 64;  // 63 elementwise + the reduce

double ReduceChainSeconds(bool fuse) {
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  ctx->set_fuse_elementwise(fuse);
  ctx->set_async(true);
  Tensor x = ops::random_normal({256, 256}, 0, 1, /*seed=*/7);
  Tensor half = ops::scalar<float>(0.5f);
  auto step = [&] {
    for (int chain = 0; chain < 4; ++chain) {
      Tensor h = x;
      for (int i = 0; i < (kReduceChainOps - 1) / 3; ++i) {
        h = ops::relu(ops::mul(ops::add(h, x), half));
      }
      Tensor total = ops::reduce_sum(h);
      (void)total;
    }
    ctx->SyncAllDevices();
  };
  step();  // warm-up
  double seconds = bench::MeasureWallSeconds(step, kChainIterations);
  ctx->set_async(false);
  ctx->set_fuse_elementwise(true);
  return seconds;
}

// ---- Residual diamond tower: DAG capture + program cache ------------------
//
// Each block computes t = relu(y * half); y = t + y. The skip connection
// makes every block a diamond: y feeds both the mul and the join add, so
// once a run spans a block boundary the in-run y is consumed twice — a true
// DAG segment, not a chain. (relu rather than tanh: the point is dispatch
// overhead removed by fusion, and a transcendental would bury it under pure
// compute on both sides.) The same shapes recur every block and every
// iteration, so after warm-up the drain resolves each window's program from
// the fused-program cache instead of recompiling.
constexpr int kResidualBlocks = 40;  // 3 ops per block

struct ResidualResult {
  double seconds = 0;
  double cache_hit_rate = 0;  // over the gated towers (see MeasureResidual)
  double cache_misses = 0;    // over the gated towers
  // Candidates the selector's scans reached per queued op, over the gated
  // towers: deterministic, so it moves only when the scan policy does.
  double candidates_per_op = 0;
  double dag_runs = 0;        // fused DAG segments over the timed window
  std::vector<float> values;  // final tower output, for the bitwise check
};

ResidualResult MeasureResidual(bool fuse) {
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  ctx->set_fuse_elementwise(fuse);
  const Tensor x_value = ops::random_normal({256, 256}, 0, 1, /*seed=*/13);
  ctx->set_async(true);
  Tensor x = ops::random_normal({256, 256}, 0, 1, /*seed=*/13);
  Tensor half = ops::scalar<float>(0.5f);
  auto tower = [&](const Tensor& input) {
    Tensor y = input;
    for (int i = 0; i < kResidualBlocks; ++i) {
      Tensor t = ops::relu(ops::mul(y, half));
      y = ops::add(t, y);
    }
    return y;
  };
  auto step = [&] {
    (void)tower(x);
    ctx->SyncAllDevices();
  };
  // Timed towers: the drain cuts windows from whatever is queued when it
  // wakes, as in real async use.
  for (int i = 0; i < 8; ++i) step();
  const uint64_t dag_before = ctx->stats().fused_dag_runs.load();
  ResidualResult out;
  out.seconds = bench::MeasureWallSeconds(step, kChainIterations);
  out.dag_runs =
      static_cast<double>(ctx->stats().fused_dag_runs.load() - dag_before);

  // Gated towers: the input is a pending handle resolved only after the
  // whole tower is queued, so the drain parks on the first op and cuts
  // every window from the complete tower. The windows, and so the program
  // keys, no longer depend on drain-thread timing: after the first gated
  // tower compiles its programs, each later lookup should hit.
  auto gated_step = [&] {
    auto gate = tfe::TensorHandle::Pending(tfe::DType::kFloat32, x.shape(),
                                           ctx->HostCpu());
    (void)tower(Tensor::FromHandle(gate));
    gate->SetTensor(x_value, /*ready_ns=*/0);
    ctx->SyncAllDevices();
  };
  gated_step();
  profiler::Counter* hits =
      profiler::Metrics().GetCounter("fusion.program_cache.hit");
  profiler::Counter* misses =
      profiler::Metrics().GetCounter("fusion.program_cache.miss");
  profiler::Counter* candidates =
      profiler::Metrics().GetCounter("fusion.scan.candidates");
  const uint64_t hits_before = hits->value();
  const uint64_t misses_before = misses->value();
  const uint64_t candidates_before = candidates->value();
  for (int i = 0; i < kChainIterations; ++i) gated_step();
  const double hit_delta = static_cast<double>(hits->value() - hits_before);
  const double miss_delta =
      static_cast<double>(misses->value() - misses_before);
  out.cache_misses = miss_delta;
  out.candidates_per_op =
      static_cast<double>(candidates->value() - candidates_before) /
      (3.0 * kResidualBlocks * kChainIterations);
  out.cache_hit_rate = hit_delta + miss_delta > 0
                           ? hit_delta / (hit_delta + miss_delta)
                           : 0.0;
  Tensor tip = tower(x);
  ctx->SyncAllDevices();
  out.values = tfe::tensor_util::ToVector<float>(tip);
  ctx->set_async(false);
  ctx->set_fuse_elementwise(true);
  return out;
}

// ---- Arena allocator A/B and buffer donation A/B ---------------------------
//
// Two series, one mechanism each. Arena vs system runs with donation off on
// both sides; donation on vs off runs on the arena on both sides.
//
// Donation folds a fused run's uniquely-owned input buffer into its output:
// per run the memory system sees one 256KB payload instead of two, so
// device.*.bytes_moved drops ~50% on a unary chain (>=30% is the gate). The
// arena's own wall-clock win is measured on a chain of 64MB tensors: above
// glibc's maximum mmap threshold (32MB) every system allocation is a fresh
// mmap, so each op pays munmap + ~16k page faults re-zeroing the block,
// while the arena hands the same warm, committed pages back per op. (Small
// buffers show no reliable gap — glibc's adaptive threshold absorbs those
// into its own freelists, which is exactly the arena pattern.)

constexpr int kAllocChainOps = 512;
constexpr int kBigChainOps = 6;

Tensor AllocChainTip(const Tensor& x) {
  Tensor h = x;
  for (int i = 0; i < kAllocChainOps; ++i) {
    h = (i % 2 == 0) ? ops::abs(h) : ops::neg(h);
  }
  return h;
}

struct AllocatorVariant {
  double big_chain_seconds = 0;  // 64MB-tensor loop, fusion off
  double fused_seconds = 0;      // fused loop (donation active when enabled)
  double bytes_moved = 0;        // device bytes over the fused measured window
  double donations = 0;          // in-place fused outputs over the same window
  std::vector<float> values;     // final chain tip, for the bitwise check
};

AllocatorVariant MeasureAllocatorVariant(tfe::AllocatorKind kind,
                                         bool donation) {
  // A fresh context whose devices each own an allocator of `kind`.
  tfe::EagerContext::ResetGlobal({.allocator = kind});
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  ctx->set_buffer_donation(donation);
  ctx->set_async(true);

  AllocatorVariant out;
  Tensor x = ops::random_normal({256, 256}, 0, 1, /*seed=*/7);
  ctx->SyncAllDevices();
  auto step = [&] {
    for (int chain = 0; chain < 2; ++chain) (void)AllocChainTip(x);
    ctx->SyncAllDevices();
  };

  // Allocation-heavy loop: each op materializes a fresh 64MB output.
  Tensor big = ops::random_normal({4096, 4096}, 0, 1, /*seed=*/9);
  ctx->SyncAllDevices();
  auto big_step = [&] {
    Tensor h = big;
    for (int i = 0; i < kBigChainOps; ++i) {
      h = (i % 2 == 0) ? ops::abs(h) : ops::neg(h);
    }
    ctx->SyncAllDevices();
  };
  ctx->set_fuse_elementwise(false);
  big_step();  // warm-up: queue threads, arena freelists
  out.big_chain_seconds = bench::MeasureWallSeconds(big_step, /*iterations=*/5);

  ctx->set_fuse_elementwise(true);
  step();  // warm-up
  // bytes_moved only accumulates while the profiler is on (the kernel
  // observability wrapper early-outs otherwise).
  profiler::Counter* moved = profiler::Metrics().GetCounter(
      "device." + ctx->HostCpu()->name() + ".bytes_moved");
  profiler::Counter* donations =
      profiler::Metrics().GetCounter("allocator.donations");
  const bool was_profiling = profiler::enabled();
  if (!was_profiling) profiler::Start();
  const uint64_t moved_before = moved->value();
  const uint64_t donations_before = donations->value();
  out.fused_seconds = bench::MeasureWallSeconds(step, /*iterations=*/10);
  out.bytes_moved = static_cast<double>(moved->value() - moved_before);
  out.donations = static_cast<double>(donations->value() - donations_before);
  if (!was_profiling) profiler::Stop();

  Tensor tip = AllocChainTip(x);
  ctx->SyncAllDevices();
  out.values = tfe::tensor_util::ToVector<float>(tip);
  ctx->set_async(false);
  return out;
}

double MatMulSeconds(bool parallel) {
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  ctx->set_intra_op_parallelism(parallel);
  Tensor a = ops::random_normal({512, 512}, 0, 1, /*seed=*/1);
  Tensor b = ops::random_normal({512, 512}, 0, 1, /*seed=*/2);
  auto step = [&] { ops::matmul(a, b); };
  step();  // warm-up
  double seconds = bench::MeasureWallSeconds(step, /*iterations=*/5);
  ctx->set_intra_op_parallelism(true);
  return seconds;
}

}  // namespace

int main() {
  tfe::EagerContext::ResetGlobal({});
  tfe::EagerContext* ctx = tfe::EagerContext::Global();

  std::printf("Elementwise fusion + intra-op parallelism (wall time)\n");

  // The drain records every popped run's length here (always-on metric), so
  // resetting it before each fused window gives the mean run length that
  // window achieved.
  profiler::Histogram* run_length =
      profiler::Metrics().GetHistogram("fusion.run_length");

  ctx->stats().fused_runs.store(0);
  ctx->stats().fused_ops.store(0);
  double unfused = ChainSeconds(/*fuse=*/false);
  run_length->Reset();
  double fused = ChainSeconds(/*fuse=*/true);
  const double plain_run_length = run_length->mean();
  const double fused_runs = static_cast<double>(ctx->stats().fused_runs.load());
  const double fused_ops = static_cast<double>(ctx->stats().fused_ops.load());

  std::printf("\n%d-op elementwise chain, async dispatch, %d iterations\n",
              kChainOps, kChainIterations);
  std::printf("%-22s%10.1f ms\n", "fusion off", unfused * 1e3);
  std::printf("%-22s%10.1f ms\n", "fusion on", fused * 1e3);
  std::printf("%-22s%9.2fx\n", "speedup", unfused / fused);
  std::printf("%-22s%10.0f runs / %.0f ops folded\n", "drain fuser",
              fused_runs, fused_ops);
  std::printf("%-22s%10.1f ops\n", "mean run length", plain_run_length);

  double cast_unfused = CastChainSeconds(/*fuse=*/false);
  run_length->Reset();
  double cast_fused = CastChainSeconds(/*fuse=*/true);
  const double cast_run_length = run_length->mean();

  std::printf("\n%d-op chain with a cast every 4th op\n", kChainOps);
  std::printf("%-22s%10.1f ms\n", "fusion off", cast_unfused * 1e3);
  std::printf("%-22s%10.1f ms\n", "fusion on", cast_fused * 1e3);
  std::printf("%-22s%9.2fx\n", "speedup", cast_unfused / cast_fused);
  std::printf("%-22s%10.1f ops (casts fold instead of cutting)\n",
              "mean run length", cast_run_length);

  double layout_unfused = LayoutChainSeconds(/*fuse=*/false);
  run_length->Reset();
  double layout_fused = LayoutChainSeconds(/*fuse=*/true);
  const double layout_run_length = run_length->mean();

  std::printf("\n%d-op chain with transpose / bias-add every other op\n",
              kChainOps);
  std::printf("%-22s%10.1f ms\n", "fusion off", layout_unfused * 1e3);
  std::printf("%-22s%10.1f ms\n", "fusion on", layout_fused * 1e3);
  std::printf("%-22s%9.2fx\n", "speedup", layout_unfused / layout_fused);
  std::printf("%-22s%10.1f ops (layout ops ride inside the run)\n",
              "mean run length", layout_run_length);

  profiler::Counter* reduce_runs =
      profiler::Metrics().GetCounter("fusion.reduce_runs");
  const int64_t reduce_runs_before = reduce_runs->value();
  double reduce_unfused = ReduceChainSeconds(/*fuse=*/false);
  double reduce_fused = ReduceChainSeconds(/*fuse=*/true);
  const double fused_reduce_runs =
      static_cast<double>(reduce_runs->value() - reduce_runs_before);

  std::printf("\n%d-op elementwise chain ending in reduce_sum\n",
              kReduceChainOps);
  std::printf("%-22s%10.1f ms\n", "fusion off", reduce_unfused * 1e3);
  std::printf("%-22s%10.1f ms\n", "fusion on", reduce_fused * 1e3);
  std::printf("%-22s%9.2fx\n", "speedup", reduce_unfused / reduce_fused);
  std::printf("%-22s%10.0f map-reduce passes\n", "fused reduce runs",
              fused_reduce_runs);

  ResidualResult residual_unfused = MeasureResidual(/*fuse=*/false);
  ResidualResult residual_fused = MeasureResidual(/*fuse=*/true);
  const double residual_speedup =
      residual_unfused.seconds / residual_fused.seconds;
  const bool residual_bitwise_equal =
      residual_unfused.values.size() == residual_fused.values.size() &&
      std::memcmp(residual_unfused.values.data(), residual_fused.values.data(),
                  residual_fused.values.size() * sizeof(float)) == 0;

  std::printf("\n%d-block residual tower (diamond DAG per block)\n",
              kResidualBlocks);
  std::printf("%-22s%10.1f ms\n", "fusion off",
              residual_unfused.seconds * 1e3);
  std::printf("%-22s%10.1f ms\n", "fusion + program cache",
              residual_fused.seconds * 1e3);
  std::printf("%-22s%9.2fx\n", "speedup", residual_speedup);
  std::printf("%-22s%9.0f%% (%.0f misses)\n", "cache hit rate",
              residual_fused.cache_hit_rate * 100.0,
              residual_fused.cache_misses);
  std::printf("%-22s%10.2f per queued op (gated towers)\n",
              "scan candidates", residual_fused.candidates_per_op);
  std::printf("%-22s%10.0f DAG segments\n", "dag fused runs",
              residual_fused.dag_runs);
  std::printf("%-22s%10s\n", "bitwise identical",
              residual_bitwise_equal ? "yes" : "NO");

  // Allocator A/B (donation off on both sides) and donation A/B (arena on
  // both sides): each series varies one mechanism, on the same chains, and
  // must produce the same bits.
  AllocatorVariant alloc_system =
      MeasureAllocatorVariant(tfe::AllocatorKind::kSystem, /*donation=*/false);
  AllocatorVariant alloc_arena =
      MeasureAllocatorVariant(tfe::AllocatorKind::kArena, /*donation=*/false);
  AllocatorVariant alloc_donate =
      MeasureAllocatorVariant(tfe::AllocatorKind::kArena, /*donation=*/true);
  tfe::EagerContext::ResetGlobal({});
  auto same_bits = [](const AllocatorVariant& a, const AllocatorVariant& b) {
    return a.values.size() == b.values.size() &&
           std::memcmp(a.values.data(), b.values.data(),
                       a.values.size() * sizeof(float)) == 0;
  };
  const bool arena_bitwise_equal = same_bits(alloc_system, alloc_arena);
  const bool donation_bitwise_equal = same_bits(alloc_arena, alloc_donate);
  const double bytes_reduction =
      alloc_arena.bytes_moved > 0
          ? 1.0 - alloc_donate.bytes_moved / alloc_arena.bytes_moved
          : 0.0;

  std::printf("\n%d-op 64MB unary chain, fusion off: arena vs system "
              "(donation off)\n",
              kBigChainOps);
  std::printf("%-22s%10.1f ms\n", "system allocator",
              alloc_system.big_chain_seconds * 1e3);
  std::printf("%-22s%10.1f ms\n", "arena allocator",
              alloc_arena.big_chain_seconds * 1e3);
  std::printf("%-22s%9.2fx\n", "arena speedup",
              alloc_system.big_chain_seconds / alloc_arena.big_chain_seconds);
  std::printf("%-22s%10s\n", "bitwise identical",
              arena_bitwise_equal ? "yes" : "NO");

  std::printf("\n%d-op unary chain: donation on vs off (arena)\n",
              kAllocChainOps);
  std::printf("%-22s%10.1f MB -> %.1f MB (-%.0f%%)\n", "fused bytes moved",
              alloc_arena.bytes_moved / 1e6, alloc_donate.bytes_moved / 1e6,
              bytes_reduction * 100.0);
  std::printf("%-22s%10.0f in-place outputs\n", "donations",
              alloc_donate.donations);
  std::printf("%-22s%10.1f ms -> %.1f ms (%d-op 64MB chain)\n",
              "donation wall time", alloc_arena.big_chain_seconds * 1e3,
              alloc_donate.big_chain_seconds * 1e3, kBigChainOps);
  std::printf("%-22s%10s\n", "bitwise identical",
              donation_bitwise_equal ? "yes" : "NO");

  // The MatMul parallel-speedup series only measures anything on a machine
  // with more than one hardware thread; on a single-core host the sharded
  // product degenerates to the serial one plus threadpool overhead, so the
  // series (and its JSON keys) is skipped entirely.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool run_matmul_series = hw > 1;
  double serial = 0.0;
  double parallel = 0.0;
  if (run_matmul_series) {
    serial = MatMulSeconds(/*parallel=*/false);
    parallel = MatMulSeconds(/*parallel=*/true);

    std::printf("\n512x512x512 MatMul, %u hardware threads\n", hw);
    std::printf("%-22s%10.1f ms\n", "serial", serial * 1e3);
    std::printf("%-22s%10.1f ms\n", "intra-op parallel", parallel * 1e3);
    std::printf("%-22s%9.2fx\n", "speedup", serial / parallel);
    std::printf(
        "\nExpected: >=2x on both (MatMul needs >=4 hardware threads); the\n"
        "parallel product is bitwise identical to the serial one.\n");
  } else {
    std::printf(
        "\n512x512x512 MatMul series skipped: 1 hardware thread, no\n"
        "parallel speedup to measure.\n");
  }

  bench::JsonReport report("fusion");
  report.Add("chain_unfused_seconds", unfused);
  report.Add("chain_fused_seconds", fused);
  report.Add("chain_speedup", unfused / fused);
  report.Add("fused_runs", fused_runs);
  report.Add("fused_ops", fused_ops);
  report.Add("chain_mean_run_length", plain_run_length);
  report.Add("cast_chain_unfused_seconds", cast_unfused);
  report.Add("cast_chain_fused_seconds", cast_fused);
  report.Add("cast_chain_speedup", cast_unfused / cast_fused);
  report.Add("cast_chain_mean_run_length", cast_run_length);
  report.Add("layout_chain_unfused_seconds", layout_unfused);
  report.Add("layout_chain_fused_seconds", layout_fused);
  report.Add("layout_chain_speedup", layout_unfused / layout_fused);
  report.Add("layout_chain_mean_run_length", layout_run_length);
  report.Add("reduce_chain_unfused_seconds", reduce_unfused);
  report.Add("reduce_chain_fused_seconds", reduce_fused);
  report.Add("reduce_chain_speedup", reduce_unfused / reduce_fused);
  report.Add("fused_reduce_runs", fused_reduce_runs);
  report.Add("residual_unfused_seconds", residual_unfused.seconds);
  report.Add("residual_fused_seconds", residual_fused.seconds);
  report.Add("residual_speedup", residual_speedup);
  report.Add("residual_cache_hit_rate", residual_fused.cache_hit_rate);
  report.Add("residual_cache_misses", residual_fused.cache_misses);
  report.Add("residual_scan_candidates_per_op",
             residual_fused.candidates_per_op);
  report.Add("residual_dag_runs", residual_fused.dag_runs);
  report.Add("residual_bitwise_equal", residual_bitwise_equal ? 1.0 : 0.0);
  report.Add("alloc_system_big_chain_seconds", alloc_system.big_chain_seconds);
  report.Add("alloc_arena_big_chain_seconds", alloc_arena.big_chain_seconds);
  report.Add("alloc_arena_speedup",
             alloc_system.big_chain_seconds / alloc_arena.big_chain_seconds);
  report.Add("alloc_bitwise_equal", arena_bitwise_equal ? 1.0 : 0.0);
  report.Add("donate_big_chain_seconds", alloc_donate.big_chain_seconds);
  report.Add("donate_off_fused_seconds", alloc_arena.fused_seconds);
  report.Add("donate_on_fused_seconds", alloc_donate.fused_seconds);
  report.Add("donate_off_bytes_moved", alloc_arena.bytes_moved);
  report.Add("donate_on_bytes_moved", alloc_donate.bytes_moved);
  report.Add("donate_bytes_moved_reduction", bytes_reduction);
  report.Add("donations", alloc_donate.donations);
  report.Add("donate_bitwise_equal", donation_bitwise_equal ? 1.0 : 0.0);
  if (run_matmul_series) {
    report.Add("matmul_serial_seconds", serial);
    report.Add("matmul_parallel_seconds", parallel);
    report.Add("matmul_speedup", serial / parallel);
  }
  report.Add("hardware_threads", static_cast<double>(hw));
  report.AddProfilerMetrics();
  report.Write();

  // Regression gates for the map-reduce fusion window. Layout ops must not
  // cut runs (mean run length on the interleaved chain stays long), and the
  // fused chain→reduce pass must beat 64 separate kernel launches by >=3x.
  int rc = 0;
  if (layout_run_length <= 16.0) {
    std::fprintf(stderr,
                 "FAIL: mean run length %.1f <= 16 on the transpose/bias-add "
                 "chain — layout ops are cutting fusion runs\n",
                 layout_run_length);
    rc = 1;
  }
  if (reduce_unfused / reduce_fused < 3.0) {
    std::fprintf(stderr,
                 "FAIL: chain->reduce_sum fused speedup %.2fx < 3x\n",
                 reduce_unfused / reduce_fused);
    rc = 1;
  }
  if (fused_reduce_runs < 1.0) {
    std::fprintf(stderr,
                 "FAIL: no fused map-reduce pass ran — the reduce epilogue "
                 "was not recognized on the drain\n");
    rc = 1;
  }
  // DAG-fusion gates: the cached diamond tower must beat op-at-a-time by
  // >=2x, steady-state program lookups must resolve from the cache, at
  // least one window must have been recognized as a true DAG segment, and
  // fusion must not move a single bit of the result.
  if (residual_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: residual tower fused speedup %.2fx < 2x\n",
                 residual_speedup);
    rc = 1;
  }
  if (residual_fused.cache_hit_rate < 0.90) {
    std::fprintf(stderr,
                 "FAIL: gated-tower program-cache hit rate %.0f%% < 90%%\n",
                 residual_fused.cache_hit_rate * 100.0);
    rc = 1;
  }
  if (residual_fused.dag_runs < 1.0) {
    std::fprintf(stderr,
                 "FAIL: no DAG segment fused on the residual tower — the "
                 "diamond is being cut into chains\n");
    rc = 1;
  }
  if (!residual_bitwise_equal) {
    std::fprintf(stderr,
                 "FAIL: DAG-fused residual tower differs bitwise from the "
                 "unfused one\n");
    rc = 1;
  }
  // Memory-subsystem gates. Allocator series: the arena must beat the
  // system allocator on the allocation-heavy unfused chain with the same
  // bits. Donation series: donation must cut measured device traffic by
  // >=30% (a donated unary run moves 1 payload instead of 2, ~50%), fire
  // only when on, and not move a single bit of the results.
  if (alloc_arena.big_chain_seconds >= alloc_system.big_chain_seconds) {
    std::fprintf(stderr,
                 "FAIL: arena allocator not faster than system on the "
                 "allocation-heavy chain (%.1f ms vs %.1f ms)\n",
                 alloc_arena.big_chain_seconds * 1e3,
                 alloc_system.big_chain_seconds * 1e3);
    rc = 1;
  }
  if (!arena_bitwise_equal) {
    std::fprintf(stderr,
                 "FAIL: arena results differ bitwise from system\n");
    rc = 1;
  }
  if (bytes_reduction < 0.30) {
    std::fprintf(stderr,
                 "FAIL: donation cut fused bytes_moved by only %.0f%% < 30%%\n",
                 bytes_reduction * 100.0);
    rc = 1;
  }
  if (alloc_donate.donations < 1.0) {
    std::fprintf(stderr, "FAIL: no fused run donated an input buffer\n");
    rc = 1;
  }
  if (alloc_system.donations > 0.0 || alloc_arena.donations > 0.0) {
    std::fprintf(stderr, "FAIL: donation fired with buffer_donation off\n");
    rc = 1;
  }
  if (!donation_bitwise_equal) {
    std::fprintf(stderr,
                 "FAIL: donation results differ bitwise from copying\n");
    rc = 1;
  }
  return rc;
}
