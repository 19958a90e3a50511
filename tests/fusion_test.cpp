// Cross-op elementwise fusion (op-queue drain + graph pass) and
// threadpool-parallel kernels. The contract under test everywhere: the
// optimized path is *bitwise* identical to the op-at-a-time serial path —
// both sides evaluate the same scalar expressions (elementwise_functors.h)
// in the same order, so not even the last ulp may move.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "api/tfe.h"
#include "kernels/fused_elementwise.h"
#include "kernels/program_cache.h"
#include "ops/op_registry.h"
#include "runtime/dispatch.h"
#include "runtime/eager_context.h"
#include "tensor/tensor_handle.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

// Bitwise comparison: NaN payloads and signed zeros must match too.
::testing::AssertionResult BitwiseEqual(const std::vector<float>& a,
                                        const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// A hand-built program over {n}-element operands: slot i reads input i
// contiguously, and each entry of `outputs` is a contiguous {n} output.
kernels::MicroProgram MakeProgram(int64_t num_operands, int64_t n,
                                  int64_t num_rows,
                                  std::vector<kernels::MicroInst> insts,
                                  std::vector<int32_t> outputs) {
  kernels::MicroProgram p;
  p.num_operands = num_operands;
  p.eval_dims = {n};
  p.num_rows = num_rows;
  for (int64_t i = 0; i < num_operands; ++i) p.slots.push_back({i, {}});
  p.insts = std::move(insts);
  for (int32_t reg : outputs) p.output_specs.push_back({reg, {n}, {}});
  return p;
}

// Fusion on the drain is opportunistic: it needs queue depth, and an idle
// drain thread would otherwise pop each op the moment it is enqueued. A
// slow op at the head of the in-order queue keeps the drain busy while the
// producer enqueues the chain, making the window deterministic in practice.
void BlockQueueHead() {
  Tensor a = ops::random_normal({192, 192}, 0, 1, /*seed=*/97);
  Tensor b = ops::random_normal({192, 192}, 0, 1, /*seed=*/98);
  ASSERT_TRUE(EagerContext::Global()->Sync().ok());  // inputs ready
  (void)ops::matmul(a, b);
}

class FusionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EagerContext::Options options;
    options.async = true;
    EagerContext::ResetGlobal(options);
  }
  void TearDown() override {
    EagerContext::ResetGlobal(EagerContext::Options());
  }
};

// A randomized elementwise chain over a closed, NaN-free op set (inputs stay
// finite, no div/log/sqrt) so bitwise comparison is meaningful.
Tensor RandomChain(const Tensor& x, const Tensor& scalar, int length,
                   unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, 7);
  Tensor h = x;
  for (int i = 0; i < length; ++i) {
    switch (pick(rng)) {
      case 0: h = ops::add(h, x); break;
      case 1: h = ops::sub(h, scalar); break;
      case 2: h = ops::mul(h, scalar); break;
      case 3: h = ops::maximum(h, x); break;
      case 4: h = ops::minimum(h, scalar); break;
      case 5: h = ops::tanh(h); break;
      case 6: h = ops::relu(h); break;
      default: h = ops::neg(h); break;
    }
  }
  return h;
}

TEST_F(FusionTest, RandomChainsBitwiseMatchUnfused) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({33, 17}, 0, 1, /*seed=*/3);
  Tensor s = ops::scalar<float>(0.25f);
  for (unsigned seed = 1; seed <= 5; ++seed) {
    const uint64_t runs_before = ctx->stats().fused_runs.load();
    ctx->set_fuse_elementwise(true);
    ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
    Tensor fused = RandomChain(x, s, 40, seed);
    ASSERT_TRUE(ctx->Sync().ok());
    EXPECT_GT(ctx->stats().fused_runs.load(), runs_before)
        << "drain fuser never fired (seed " << seed << ")";

    ctx->set_fuse_elementwise(false);
    Tensor plain = RandomChain(x, s, 40, seed);
    ASSERT_TRUE(ctx->Sync().ok());
    EXPECT_TRUE(BitwiseEqual(ToVector<float>(fused), ToVector<float>(plain)))
        << "seed " << seed;
  }
}

TEST_F(FusionTest, BroadcastScalarOperandsFuse) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::constant<float>({1, -2, 3, -4, 5, -6}, {2, 3});
  Tensor half = ops::scalar<float>(0.5f);
  Tensor two = ops::scalar<float>(2.0f);

  const uint64_t runs_before = ctx->stats().fused_runs.load();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  // scalar on the left, on the right, and chained between tensor ops.
  Tensor h = ops::mul(two, ops::add(x, half));
  h = ops::sub(h, half);
  h = ops::maximum(h, x);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(ctx->stats().fused_runs.load(), runs_before);
  std::vector<float> fused = ToVector<float>(h);

  ctx->set_fuse_elementwise(false);
  Tensor g = ops::mul(two, ops::add(x, half));
  g = ops::sub(g, half);
  g = ops::maximum(g, x);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(fused, ToVector<float>(g)));
}

TEST_F(FusionTest, MidChainReductionSplitsOrTerminatesButValuesAgree) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({4, 4}, 0, 1, /*seed=*/11);
  // reduce_sum mid-chain may only *terminate* a run (add/relu/sum fuse into
  // one map-reduce pass; mul/tanh restart a fresh run downstream) — either
  // way the values may not move a single ulp.
  Tensor h = ops::relu(ops::add(x, x));
  Tensor r = ops::reduce_sum(h, {1}, /*keep_dims=*/true);
  Tensor out = ops::tanh(ops::mul(h, r));
  ASSERT_TRUE(ctx->Sync().ok());
  std::vector<float> fused = ToVector<float>(out);

  ctx->set_fuse_elementwise(false);
  Tensor h2 = ops::relu(ops::add(x, x));
  Tensor r2 = ops::reduce_sum(h2, {1}, /*keep_dims=*/true);
  Tensor out2 = ops::tanh(ops::mul(h2, r2));
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(fused, ToVector<float>(out2)));
}

TEST_F(FusionTest, PoisonedProducerCutsRunAndPreservesErrorSemantics) {
  EagerContext* ctx = EagerContext::Global();
  Tensor params = ops::constant<float>({10, 20, 30}, {3});
  // Exact values computed before the failure must still be exact.
  Tensor good = ops::mul(ops::add(params, params), ops::scalar<float>(0.5f));
  // The gather fails at kernel time; everything downstream is poisoned.
  Tensor bad = ops::gather(params, ops::constant<int64_t>({7}, {1}));
  Tensor down = ops::add(ops::relu(bad), bad);

  EXPECT_EQ(ToVector<float>(good), (std::vector<float>{10, 20, 30}));
  Status status = down.Materialize();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);

  // The deferred error surfaces once at Sync; afterwards the context (and
  // the fuser) keep working.
  ASSERT_FALSE(ctx->Sync().ok());
  ASSERT_TRUE(ctx->Sync().ok());
  Tensor again = ops::add(ops::add(params, params), params);
  EXPECT_EQ(ToVector<float>(again), (std::vector<float>{30, 60, 90}));
}

TEST_F(FusionTest, TapeGradientsBitwiseMatchUnfused) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({8, 8}, 0, 1, /*seed=*/21);
  auto grads = [&](bool fuse) {
    ctx->set_fuse_elementwise(fuse);
    GradientTape tape;
    tape.watch(x);
    Tensor y = ops::tanh(ops::mul(ops::add(x, x), x));
    Tensor loss = ops::reduce_sum(ops::square(y));
    auto dx = tape.gradient(loss, {x});
    EXPECT_TRUE(dx.ok());
    EXPECT_TRUE(ctx->Sync().ok());
    return ToVector<float>((*dx)[0]);
  };
  EXPECT_TRUE(BitwiseEqual(grads(true), grads(false)));
}

TEST_F(FusionTest, StagedFunctionFusesStatically) {
  EagerContext* ctx = EagerContext::Global();
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor h = ops::relu(ops::add(args[0], args[0]));
        h = ops::tanh(ops::mul(h, h));
        h = ops::sub(h, args[0]);
        return {h};
      },
      "fusion_staged_chain");
  Tensor x = ops::random_normal({16}, 0, 1, /*seed=*/5);

  const uint64_t runs_before = ctx->stats().fused_runs.load();
  std::vector<float> fused = ToVector<float>(f({x})[0]);
  ASSERT_TRUE(ctx->Sync().ok());
  // The execution variant replaced the elementwise span with one
  // FusedElementwise node.
  EXPECT_GT(ctx->stats().fused_runs.load(), runs_before);

  ctx->set_fuse_elementwise(false);
  std::vector<float> plain = ToVector<float>(f({x})[0]);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(fused, plain));
}

TEST_F(FusionTest, StagedFunctionWithCastFusesStatically) {
  // The static pass admits Cast like the drain does: a staged function whose
  // chain converts an int32 argument mid-run still collapses to one
  // FusedElementwise node, and values match the unfused execution bitwise.
  EagerContext* ctx = EagerContext::Global();
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor h = ops::add(ops::cast(args[0], DType::kFloat32), args[1]);
        h = ops::relu(ops::mul(h, ops::scalar<float>(0.5f)));
        return {ops::sub(h, args[1])};
      },
      "fusion_staged_cast_chain");
  Tensor xi = ops::cast(ops::random_normal({16}, 0, 8, /*seed=*/6),
                        DType::kInt32);
  Tensor xf = ops::random_normal({16}, 0, 1, /*seed=*/7);
  ASSERT_TRUE(ctx->Sync().ok());

  const uint64_t runs_before = ctx->stats().fused_runs.load();
  std::vector<float> fused = ToVector<float>(f({xi, xf})[0]);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(ctx->stats().fused_runs.load(), runs_before)
      << "cast-bearing staged chain never fused";

  ctx->set_fuse_elementwise(false);
  std::vector<float> plain = ToVector<float>(f({xi, xf})[0]);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(fused, plain));
}

TEST_F(FusionTest, StagedFunctionGradientUnaffectedByFusion) {
  // BuildBackward differentiates the *original* graph — the fused execution
  // variant must never leak into autodiff.
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::constant<float>({0.5f, -1.5f, 2.0f}, {3});
  auto run = [&](bool fuse) {
    ctx->set_fuse_elementwise(fuse);
    Function f = function(
        [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
          return {ops::reduce_sum(
              ops::mul(ops::tanh(args[0]), ops::add(args[0], args[0])))};
        },
        fuse ? "fusion_grad_on" : "fusion_grad_off");
    GradientTape tape;
    tape.watch(x);
    Tensor loss = f({x})[0];
    auto dx = tape.gradient(loss, {x});
    EXPECT_TRUE(dx.ok());
    return ToVector<float>((*dx)[0]);
  };
  EXPECT_TRUE(BitwiseEqual(run(true), run(false)));
}

TEST_F(FusionTest, AsyncVariableOpsStayOrdered) {
  EagerContext* ctx = EagerContext::Global();
  Variable v(ops::constant<float>({0, 0}, {2}));
  Tensor delta = ops::constant<float>({1, 2}, {2});
  // Updates flow through the op queue; in-order draining must make the
  // final read observe every one of them.
  for (int i = 0; i < 50; ++i) v.assign_add(delta);
  Tensor value = v.read_value();
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(ToVector<float>(value), (std::vector<float>{50, 100}));
}

TEST_F(FusionTest, PoisonedAssignLeavesOldValue) {
  EagerContext* ctx = EagerContext::Global();
  Variable v(ops::constant<float>({5, 6}, {2}));
  Tensor params = ops::constant<float>({1, 2}, {2});
  Tensor bad = ops::gather(params, ops::constant<int64_t>({9, 9}, {2}));
  v.assign(bad);  // enqueued; the kernel fails before the buffer swap
  ASSERT_FALSE(ctx->Sync().ok());
  EXPECT_EQ(ToVector<float>(v.read_value()), (std::vector<float>{5, 6}));
}

// --- cast folding ----------------------------------------------------------

TEST_F(FusionTest, CastOperandsFoldIntoTheRun) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({33, 17}, 0, 1, /*seed=*/13);
  // A full-shape int32 operand: its cast matches the run shape, so the
  // drain folds it as a kCast micro-op. (Scalar casts join too — see
  // ScalarCastJoinsTheRun.)
  Tensor i32 = ops::cast(ops::mul(x, ops::scalar<float>(4.0f)), DType::kInt32);
  ASSERT_TRUE(ctx->Sync().ok());  // i32 concrete before the chain
  auto chain = [&] {
    // Two casts interleaved with float arithmetic: both must ride inside
    // the same fused run as pre-converted foreign operands.
    Tensor h = ops::add(x, ops::cast(i32, DType::kFloat32));
    h = ops::mul(h, ops::scalar<float>(0.5f));
    h = ops::relu(ops::sub(h, ops::cast(i32, DType::kFloat32)));
    return ops::maximum(h, x);
  };

  // The drain records every popped run's length; a cast-cut chain could at
  // best reach 3 consecutive fusable ops, so max >= 5 proves the casts
  // folded into one run.
  profiler::Histogram* run_length =
      profiler::Metrics().GetHistogram("fusion.run_length");
  run_length->Reset();
  const uint64_t runs_before = ctx->stats().fused_runs.load();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor fused = chain();
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(ctx->stats().fused_runs.load(), runs_before)
      << "cast-bearing chain never fused";
  EXPECT_GE(run_length->Snapshot().max, 5u)
      << "casts cut the run instead of folding";

  ctx->set_fuse_elementwise(false);
  Tensor plain = chain();
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(ToVector<float>(fused), ToVector<float>(plain)));
}

TEST_F(FusionTest, CastToDifferentDtypeCutsRunButValuesAgree) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({5, 7}, 0, 4, /*seed=*/17);
  auto chain = [&] {
    Tensor h = ops::mul(ops::add(x, x), x);       // float run
    Tensor i = ops::cast(h, DType::kInt32);       // dtype changes: run splits
    Tensor j = ops::add(ops::add(i, i), i);       // int32 run
    return ops::cast(j, DType::kFloat32);
  };
  Tensor fused = chain();
  ASSERT_TRUE(ctx->Sync().ok());

  ctx->set_fuse_elementwise(false);
  Tensor plain = chain();
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(ToVector<float>(fused), ToVector<float>(plain)));
}

TEST_F(FusionTest, HandcraftedCastProgramConvertsOperand) {
  // Exercise the kernel directly: slot 1 is int32 (foreign), kCast folds it
  // into the float run, then kAdd consumes the converted value.
  kernels::MicroProgram program =
      MakeProgram(2, 3, 2,
                  {{kernels::MicroOpCode::kCast, 1, 1, 2},
                   {kernels::MicroOpCode::kAdd, 0, 2, 3}},
                  {3});
  AttrMap attrs;
  attrs.emplace("program", AttrValue(program.Encode()));
  attrs.emplace("dtype", AttrValue(DType::kFloat32));
  Tensor xf = ops::constant<float>({0.5f, -1.25f, 2.0f}, {3});
  Tensor xi = ops::constant<int32_t>({1, -2, 3}, {3});
  auto result = DispatchSingle({.op_name = "FusedElementwise",
                                .inputs = {xf, xi},
                                .attrs = attrs});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(EagerContext::Global()->Sync().ok());
  EXPECT_EQ(ToVector<float>(*result),
            (std::vector<float>{1.5f, -3.25f, 5.0f}));
}

TEST_F(FusionTest, ForeignOperandReadByNonCastIsRejected) {
  // A non-cast instruction reading a foreign-dtype operand is a malformed
  // program: only kCast may consume registers that need conversion.
  kernels::MicroProgram program =
      MakeProgram(2, 2, 1, {{kernels::MicroOpCode::kAdd, 0, 1, 2}}, {2});
  AttrMap attrs;
  attrs.emplace("program", AttrValue(program.Encode()));
  attrs.emplace("dtype", AttrValue(DType::kFloat32));
  Tensor xf = ops::constant<float>({1, 2}, {2});
  Tensor xi = ops::constant<int32_t>({1, 2}, {2});
  auto result = Dispatch({.op_name = "FusedElementwise",
                          .inputs = {xf, xi},
                          .attrs = attrs});
  // Async execution defers the kernel failure to the sync point.
  Status status =
      result.ok() ? (*result)[0].Materialize() : result.status();
  EXPECT_FALSE(status.ok());
  (void)EagerContext::Global()->Sync();  // absorb the deferred error
}

// --- map-reduce fusion: layout members, reduce epilogues, scalar casts -----

TEST_F(FusionTest, TransposeAndBiasAddRideInsideTheRun) {
  // Layout ops fold into the run as indexed loads instead of cutting it: an
  // interleaved transpose/bias-add/elementwise chain pops as one long run.
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({24, 24}, 0, 1, /*seed=*/41);
  Tensor bias = ops::random_normal({24}, 0, 1, /*seed=*/42);
  ASSERT_TRUE(ctx->Sync().ok());
  auto chain = [&] {
    Tensor h = ops::add(x, bias);            // bias-add (row broadcast)
    h = ops::transpose(h, {1, 0});
    h = ops::mul(h, ops::scalar<float>(0.5f));
    h = ops::transpose(h, {1, 0});
    h = ops::relu(ops::add(h, bias));
    return ops::sub(h, x);
  };

  profiler::Histogram* run_length =
      profiler::Metrics().GetHistogram("fusion.run_length");
  run_length->Reset();
  const uint64_t runs_before = ctx->stats().fused_runs.load();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor fused = chain();
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(ctx->stats().fused_runs.load(), runs_before)
      << "layout-interleaved chain never fused";
  // Transpose-cut runs could reach at most 2; >= 5 proves layout members
  // joined.
  EXPECT_GE(run_length->Snapshot().max, 5u)
      << "transposes cut the run instead of folding";

  ctx->set_fuse_elementwise(false);
  Tensor plain = chain();
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(ToVector<float>(fused), ToVector<float>(plain)));
}

TEST_F(FusionTest, ReduceEpilogueFusesAndMatchesUnfusedBitwise) {
  // elementwise-chain -> reduction executes as one blocked map-reduce pass;
  // partial accumulators + the deterministic tree combine keep it bitwise
  // identical to the standalone reduction kernel.
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({64, 32}, 0, 1, /*seed=*/43);
  Tensor bias = ops::random_normal({32}, 0, 1, /*seed=*/44);
  ASSERT_TRUE(ctx->Sync().ok());
  profiler::Counter* reduce_runs =
      profiler::Metrics().GetCounter("fusion.reduce_runs");

  struct Case {
    const char* name;
    std::function<Tensor()> build;
  };
  const Case cases[] = {
      {"row_sum",
       [&] {
         return ops::reduce_sum(ops::relu(ops::mul(ops::add(x, bias), x)),
                                {1});
       }},
      {"full_mean",
       [&] { return ops::reduce_mean(ops::tanh(ops::add(x, x))); }},
      {"row_max_keepdims",
       [&] {
         return ops::reduce_max(ops::sub(ops::mul(x, x), bias), {1},
                                /*keep_dims=*/true);
       }},
  };
  for (const Case& c : cases) {
    ctx->set_fuse_elementwise(true);
    const uint64_t reduce_before = reduce_runs->value();
    ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
    Tensor fused = c.build();
    ASSERT_TRUE(ctx->Sync().ok());
    EXPECT_GT(reduce_runs->value(), reduce_before)
        << c.name << ": no fused map-reduce pass ran";

    ctx->set_fuse_elementwise(false);
    Tensor plain = c.build();
    ASSERT_TRUE(ctx->Sync().ok());
    EXPECT_TRUE(BitwiseEqual(ToVector<float>(fused), ToVector<float>(plain)))
        << c.name;
  }
}

TEST_F(FusionTest, FusedReduceShardsBitwiseMatchSerial) {
  // Large enough that the fused pass shards across the intra-op pool; the
  // per-shard partials and tree combine must reproduce the serial pass
  // exactly (acceptance: fused bitwise identical, serial AND sharded).
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({256, 512}, 0, 1, /*seed=*/45);
  ASSERT_TRUE(ctx->Sync().ok());
  auto compute = [&] {
    return ops::reduce_sum(ops::mul(ops::tanh(ops::add(x, x)), x), {1});
  };
  ctx->set_intra_op_parallelism(true);
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor sharded = compute();
  ASSERT_TRUE(ctx->Sync().ok());
  std::vector<float> sharded_v = ToVector<float>(sharded);

  ctx->set_intra_op_parallelism(false);
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor serial = compute();
  ASSERT_TRUE(ctx->Sync().ok());
  ctx->set_intra_op_parallelism(true);
  EXPECT_TRUE(BitwiseEqual(sharded_v, ToVector<float>(serial)));
}

TEST_F(FusionTest, TapeGradientsThroughFusedReduceBitwiseMatchUnfused) {
  // The tape records primitive ops before the drain fuses them, so the
  // backward graph is identical either way — and the fused forward values
  // feeding it must be too.
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({16, 8}, 0, 1, /*seed=*/46);
  Tensor bias = ops::random_normal({8}, 0, 1, /*seed=*/47);
  ASSERT_TRUE(ctx->Sync().ok());
  auto grads = [&](bool fuse) {
    ctx->set_fuse_elementwise(fuse);
    GradientTape tape;
    tape.watch(x);
    Tensor y = ops::reduce_mean(ops::mul(ops::add(x, bias), x), {1});
    Tensor loss = ops::reduce_sum(ops::square(y));
    auto dx = tape.gradient(loss, {x});
    EXPECT_TRUE(dx.ok());
    EXPECT_TRUE(ctx->Sync().ok());
    return ToVector<float>((*dx)[0]);
  };
  EXPECT_TRUE(BitwiseEqual(grads(true), grads(false)));
}

TEST_F(FusionTest, PoisonPropagatesThroughFusedReduce) {
  // A poisoned producer feeding a chain that ends in a fused reduction
  // surfaces the *original* status, same as op-at-a-time execution.
  EagerContext* ctx = EagerContext::Global();
  Tensor params = ops::constant<float>({1, 2, 3}, {3});
  Tensor bad = ops::gather(params, ops::constant<int64_t>({9}, {1}));
  Tensor loss = ops::reduce_sum(ops::relu(ops::add(bad, bad)));
  Status status = loss.Materialize();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);
  ASSERT_FALSE(ctx->Sync().ok());  // deferred error surfaces once
  ASSERT_TRUE(ctx->Sync().ok());
}

TEST_F(FusionTest, ScalarCastJoinsTheRun) {
  // A scalar cast no longer cuts the run: it folds as a kCast micro-op over
  // a broadcast (scalar-slot) foreign operand.
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({33, 17}, 0, 1, /*seed=*/48);
  Tensor three = ops::constant<int32_t>({3}, {1});
  ASSERT_TRUE(ctx->Sync().ok());
  auto chain = [&] {
    Tensor h = ops::mul(x, ops::cast(three, DType::kFloat32));
    h = ops::add(h, x);
    h = ops::relu(ops::sub(h, ops::cast(three, DType::kFloat32)));
    return ops::minimum(h, x);
  };

  profiler::Histogram* run_length =
      profiler::Metrics().GetHistogram("fusion.run_length");
  run_length->Reset();
  const uint64_t runs_before = ctx->stats().fused_runs.load();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor fused = chain();
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(ctx->stats().fused_runs.load(), runs_before)
      << "scalar-cast chain never fused";
  EXPECT_GE(run_length->Snapshot().max, 5u)
      << "scalar casts cut the run instead of joining";

  ctx->set_fuse_elementwise(false);
  Tensor plain = chain();
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(ToVector<float>(fused), ToVector<float>(plain)));
}

TEST_F(FusionTest, StagedMapReduceFusesStaticallyAndMatchesBitwise) {
  // The static pass applies identical recognition: a staged
  // transpose/bias-add chain with a reduction epilogue collapses into one
  // FusedElementwise node whose execution matches the unfused variant
  // bitwise.
  EagerContext* ctx = EagerContext::Global();
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor h = ops::add(args[0], args[1]);   // bias-add
        h = ops::transpose(h, {1, 0});
        h = ops::mul(h, ops::scalar<float>(0.25f));
        h = ops::transpose(h, {1, 0});
        return {ops::reduce_sum(ops::relu(h), {1})};
      },
      "fusion_staged_map_reduce");
  Tensor x = ops::random_normal({12, 20}, 0, 1, /*seed=*/49);
  Tensor bias = ops::random_normal({20}, 0, 1, /*seed=*/50);
  ASSERT_TRUE(ctx->Sync().ok());

  profiler::Counter* reduce_runs =
      profiler::Metrics().GetCounter("fusion.reduce_runs");
  const uint64_t reduce_before = reduce_runs->value();
  std::vector<float> fused = ToVector<float>(f({x, bias})[0]);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(reduce_runs->value(), reduce_before)
      << "static pass did not form a fused map-reduce node";

  ctx->set_fuse_elementwise(false);
  std::vector<float> plain = ToVector<float>(f({x, bias})[0]);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(fused, plain));
}

TEST_F(FusionTest, DonatingRunsBitwiseMatchCopyingRuns) {
  // Buffer donation hands a uniquely-owned input buffer to the fused run as
  // its in-place output. The interpreter's block order (all loads of a block
  // precede its stores) makes the overwrite invisible to the computation:
  // the donating path must agree with fresh-allocation fused runs bitwise.
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({40, 24}, 0, 1, /*seed=*/61);
  Tensor s = ops::scalar<float>(0.5f);

  profiler::Counter* donations =
      profiler::Metrics().GetCounter("allocator.donations");
  const uint64_t donations_before = donations->value();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor donated = RandomChain(x, s, 120, /*seed=*/8);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(donations->value(), donations_before)
      << "no fused run donated an input buffer";

  ctx->set_buffer_donation(false);
  const uint64_t donations_off = donations->value();
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor copied = RandomChain(x, s, 120, /*seed=*/8);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_EQ(donations->value(), donations_off)
      << "donation fired while disabled";

  EXPECT_TRUE(BitwiseEqual(ToVector<float>(donated), ToVector<float>(copied)));
}

// --- threadpool-parallel kernels -------------------------------------------

class ParallelKernelsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    EagerContext::Global()->set_intra_op_parallelism(true);
  }
};

template <typename Fn>
void ExpectParallelBitwiseEqual(Fn compute) {
  EagerContext* ctx = EagerContext::Global();
  ctx->set_intra_op_parallelism(true);
  std::vector<float> parallel = ToVector<float>(compute());
  ctx->set_intra_op_parallelism(false);
  std::vector<float> serial = ToVector<float>(compute());
  EXPECT_TRUE(BitwiseEqual(parallel, serial));
}

TEST_F(ParallelKernelsTest, MatMulBitwise) {
  // Big enough to cross the parallel threshold (m*n*k >= 2^21).
  Tensor a = ops::random_normal({160, 160}, 0, 1, /*seed=*/31);
  Tensor b = ops::random_normal({160, 160}, 0, 1, /*seed=*/32);
  ExpectParallelBitwiseEqual([&] { return ops::matmul(a, b); });
}

TEST_F(ParallelKernelsTest, Conv2DAndGradsBitwise) {
  Tensor x = ops::random_normal({2, 24, 24, 8}, 0, 1, /*seed=*/41);
  Tensor f = ops::random_normal({3, 3, 8, 16}, 0, 1, /*seed=*/42);
  ExpectParallelBitwiseEqual([&] { return ops::conv2d(x, f, {1, 1}, "SAME"); });
  ExpectParallelBitwiseEqual([&] {
    GradientTape tape;
    tape.watch(x);
    Tensor y = ops::reduce_sum(ops::conv2d(x, f, {1, 1}, "SAME"));
    return (*tape.gradient(y, {x}))[0];
  });
}

TEST_F(ParallelKernelsTest, ConvBackpropFilterBitwise) {
  // Large enough that ConvBackpropFilter takes the chunked path (total
  // multiply-adds ~23M >> the 2^20 shard threshold, so 16 partial
  // accumulators engage). Chunking and the reduction tree depend only on
  // the geometry, so serial and parallel runs must agree bitwise.
  Tensor x = ops::random_normal({2, 32, 32, 8}, 0, 1, /*seed=*/43);
  Tensor f = ops::random_normal({3, 3, 8, 16}, 0, 1, /*seed=*/44);
  ExpectParallelBitwiseEqual([&] {
    GradientTape tape;
    tape.watch(f);
    Tensor y = ops::reduce_sum(ops::conv2d(x, f, {1, 1}, "SAME"));
    return (*tape.gradient(y, {f}))[0];
  });
}

TEST_F(ParallelKernelsTest, PoolingBitwise) {
  Tensor x = ops::random_normal({4, 32, 32, 4}, 0, 1, /*seed=*/51);
  ExpectParallelBitwiseEqual([&] { return ops::max_pool(x, {2, 2}, {2, 2}); });
  ExpectParallelBitwiseEqual([&] { return ops::avg_pool(x, {2, 2}, {2, 2}); });
  ExpectParallelBitwiseEqual([&] {
    GradientTape tape;
    tape.watch(x);
    Tensor y = ops::reduce_sum(ops::max_pool(x, {2, 2}, {2, 2}));
    return (*tape.gradient(y, {x}))[0];
  });
}

TEST_F(ParallelKernelsTest, TrailingReductionBitwise) {
  Tensor x = ops::random_normal({64, 1024}, 0, 1, /*seed=*/61);
  ExpectParallelBitwiseEqual([&] { return ops::reduce_sum(x, {1}); });
  ExpectParallelBitwiseEqual([&] { return ops::reduce_mean(x, {1}); });
  // Non-trailing axes take the serial path; values must still agree.
  ExpectParallelBitwiseEqual([&] { return ops::reduce_sum(x, {0}); });
}

TEST_F(ParallelKernelsTest, LargeElementwiseBitwise) {
  Tensor x = ops::random_normal({512, 256}, 0, 1, /*seed=*/71);
  ExpectParallelBitwiseEqual([&] { return ops::tanh(ops::add(x, x)); });
}

// --- micro-op program encoding ---------------------------------------------

TEST(MicroProgramTest, EncodeDecodeRoundTrip) {
  // Every encoded field: contiguous, scalar, and strided slots over a 2x3
  // evaluation space, explicit dst rows, a contiguous and a strided
  // (transposed) output, and a trailing-axis Sum epilogue.
  using kernels::MicroAccessKind;
  kernels::MicroProgram p;
  p.num_operands = 3;
  p.eval_dims = {2, 3};
  p.num_rows = 2;
  p.slots = {{0, {MicroAccessKind::kContiguous, {}, {}}},
             {1, {MicroAccessKind::kScalar, {}, {}}},
             {0, {MicroAccessKind::kStrided, {2, 3}, {1, 2}}}};
  p.insts = {{kernels::MicroOpCode::kAdd, 0, 1, 3},
             {kernels::MicroOpCode::kMul, 3, 2, 4}};
  p.output_specs = {{3, {2, 3}, {}},
                    {4, {3, 2}, {MicroAccessKind::kStrided, {2, 3}, {1, 2}}}};
  p.reduce = {kernels::MicroReduceKind::kSum, 4, 3, {2}};
  const std::vector<int64_t> encoded = p.Encode();
  EXPECT_EQ(encoded[0], kernels::kMicroProgramMagicV3);
  auto decoded = kernels::MicroProgram::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_operands, 3);
  EXPECT_EQ(decoded->eval_dims, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(decoded->num_rows, 2);
  ASSERT_EQ(decoded->slots.size(), 3u);
  EXPECT_TRUE(decoded->slots[2].access == p.slots[2].access);
  ASSERT_EQ(decoded->insts.size(), 2u);
  EXPECT_EQ(decoded->insts[1].opcode, kernels::MicroOpCode::kMul);
  EXPECT_EQ(decoded->insts[1].dst, 4);
  ASSERT_EQ(decoded->output_specs.size(), 2u);
  EXPECT_EQ(decoded->output_specs[1].shape, (std::vector<int64_t>{3, 2}));
  EXPECT_TRUE(decoded->output_specs[1].store == p.output_specs[1].store);
  EXPECT_EQ(decoded->reduce.kind, kernels::MicroReduceKind::kSum);
  EXPECT_EQ(decoded->reduce.reduce_count, 3);
  EXPECT_EQ(decoded->Encode(), encoded);
}

TEST(MicroProgramTest, DecodeRejectsMalformedPrograms) {
  const kernels::MicroProgram valid =
      MakeProgram(1, 4, 1, {{kernels::MicroOpCode::kNeg, 0, 0, 1}}, {1});
  ASSERT_TRUE(kernels::MicroProgram::Decode(valid.Encode()).ok());
  EXPECT_FALSE(kernels::MicroProgram::Decode({}).ok());
  // Forward reference: inst 0 reads register 1 (its own, unwritten row).
  kernels::MicroProgram forward = valid;
  forward.insts[0].a = 1;
  EXPECT_FALSE(kernels::MicroProgram::Decode(forward.Encode()).ok());
  // Unknown opcode.
  kernels::MicroProgram unknown = valid;
  unknown.insts[0].opcode = static_cast<kernels::MicroOpCode>(99);
  EXPECT_FALSE(kernels::MicroProgram::Decode(unknown.Encode()).ok());
  // Output register out of range.
  kernels::MicroProgram out_of_range = valid;
  out_of_range.output_specs[0].reg = 5;
  EXPECT_FALSE(kernels::MicroProgram::Decode(out_of_range.Encode()).ok());
  // Truncated, and trailing data.
  std::vector<int64_t> truncated = valid.Encode();
  truncated.pop_back();
  EXPECT_FALSE(kernels::MicroProgram::Decode(truncated).ok());
  std::vector<int64_t> trailing = valid.Encode();
  trailing.push_back(0);
  EXPECT_FALSE(kernels::MicroProgram::Decode(trailing).ok());
}

TEST(MicroProgramTest, CastOpcodeDecodesAndBoundsTheOpcodeRange) {
  kernels::MicroProgram p =
      MakeProgram(1, 4, 1, {{kernels::MicroOpCode::kCast, 0, 0, 1}}, {1});
  auto decoded = kernels::MicroProgram::Decode(p.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->insts[0].opcode, kernels::MicroOpCode::kCast);
  EXPECT_EQ(kernels::MicroOpArity(kernels::MicroOpCode::kCast), 1);
  // kCast is the last opcode; one past it is unknown.
  p.insts[0].opcode = static_cast<kernels::MicroOpCode>(
      static_cast<int64_t>(kernels::MicroOpCode::kCast) + 1);
  EXPECT_FALSE(kernels::MicroProgram::Decode(p.Encode()).ok());
}

TEST(MicroProgramTest, RetiredEncodingsAreRejectedLoudly) {
  // The retired layouts: v1 starts with the operand count (here 2 operands,
  // one Add, output register 2); v2 starts with -2 and carries neither a
  // row count nor dst registers (one contiguous slot, one Neg, one output).
  const int64_t neg = static_cast<int64_t>(kernels::MicroOpCode::kNeg);
  const std::vector<std::vector<int64_t>> retired = {
      {2, 1, 0, 0, 1, 1, 2},
      {-2, 1, 1, 4, 0, 1, 1, neg, 0, 0, 1, 1, 1, 4, 1, 0}};
  const OpDef* def = *OpRegistry::Global()->LookUp("FusedElementwise");
  for (const std::vector<int64_t>& encoded : retired) {
    EXPECT_EQ(kernels::MicroProgram::Decode(encoded).status().code(),
              ErrorCode::kInvalidArgument);

    AttrMap attrs;
    attrs.emplace("program", AttrValue(encoded));
    attrs.emplace("dtype", AttrValue(DType::kFloat32));
    Tensor x = ops::constant<float>({1, 2, 3, 4}, {4});
    auto result = DispatchSingle({.op_name = "FusedElementwise",
                                  .inputs = {x, x},
                                  .attrs = attrs});
    Status status = result.ok() ? result->Materialize() : result.status();
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << status.ToString();
    if (result.ok()) (void)EagerContext::Global()->Sync();  // async: absorb

    InferenceContext infer({{DType::kFloat32, Shape({4})},
                            {DType::kFloat32, Shape({4})}},
                           &attrs);
    EXPECT_EQ(def->shape_fn(&infer).code(), ErrorCode::kInvalidArgument);
  }
}

TEST(MicroProgramTest, V3RoundTripKeepsDstAndRowCount) {
  // add → relu in one reused row: dst of both instructions is row 0.
  kernels::MicroProgram p =
      MakeProgram(2, 8, 1,
                  {{kernels::MicroOpCode::kAdd, 0, 1, 2},
                   {kernels::MicroOpCode::kRelu, 2, 0, 2}},
                  {2});
  auto decoded = kernels::MicroProgram::Decode(p.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_rows, 1);
  EXPECT_EQ(decoded->num_registers(), 3);
  ASSERT_EQ(decoded->insts.size(), 2u);
  EXPECT_EQ(decoded->insts[0].dst, 2);
  EXPECT_EQ(decoded->insts[1].dst, 2);
  ASSERT_EQ(decoded->output_specs.size(), 1u);
  EXPECT_EQ(decoded->output_specs[0].reg, 2);
}

TEST(MicroProgramTest, V3RejectsRowMisuse) {
  auto make = [](int32_t inst1_a, int32_t inst1_dst, int32_t out_reg) {
    return MakeProgram(2, 8, 2,
                       {{kernels::MicroOpCode::kAdd, 0, 1, 2},
                        {kernels::MicroOpCode::kRelu, inst1_a, 0, inst1_dst}},
                       {out_reg})
        .Encode();
  };
  // The valid baseline decodes.
  ASSERT_TRUE(kernels::MicroProgram::Decode(make(2, 3, 3)).ok());
  // Reading row 1 before any instruction wrote it.
  EXPECT_FALSE(kernels::MicroProgram::Decode(make(3, 3, 3)).ok());
  // dst out of the declared row range.
  EXPECT_FALSE(kernels::MicroProgram::Decode(make(2, 4, 3)).ok());
  // Output naming a row no instruction wrote.
  EXPECT_FALSE(kernels::MicroProgram::Decode(
                   MakeProgram(2, 8, 2, {{kernels::MicroOpCode::kAdd, 0, 1, 2}},
                               {3})
                       .Encode())
                   .ok());
}

// A compute member producing {8} floats from `args`.
kernels::FusedRunOp ComputeMember(const char* op,
                                  std::vector<kernels::FusedRunArg> args) {
  kernels::FusedRunOp member;
  member.op = op;
  member.shape = Shape({8});
  member.args = std::move(args);
  return member;
}

TEST(MicroProgramTest, CompactProgramDedupsAndReusesRows) {
  // add(o0, o1) computed twice (a shared subexpression), then multiplied
  // with itself. The compiler must merge the duplicate and recycle its row.
  std::vector<kernels::FusedRunOp> ops = {
      ComputeMember("Add", {{-1, 0}, {-1, 1}}),
      ComputeMember("Add", {{-1, 0}, {-1, 1}}),
      ComputeMember("Mul", {{0, -1}, {1, -1}})};
  ops.back().materialize = true;
  const std::vector<kernels::FusedRunOperand> operands(
      2, {DType::kFloat32, Shape({8})});
  auto compiled = kernels::CompileFusedRun(ops, operands, DType::kFloat32);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const kernels::MicroProgram& p = compiled->program;
  ASSERT_EQ(p.insts.size(), 2u);  // duplicate add merged
  EXPECT_EQ(p.insts[1].opcode, kernels::MicroOpCode::kMul);
  // Both mul operands read the single shared add row.
  EXPECT_EQ(p.insts[1].a, p.insts[0].dst);
  EXPECT_EQ(p.insts[1].b, p.insts[0].dst);
  EXPECT_LE(p.num_rows, 2);
  ASSERT_EQ(p.output_specs.size(), 1u);
  EXPECT_EQ(p.output_specs[0].reg, p.insts[1].dst);
  EXPECT_TRUE(kernels::MicroProgram::Decode(p.Encode()).ok());
}

TEST(MicroProgramTest, CompactProgramBoundsRowsOnLongChains) {
  // A 32-op chain needs a constant number of rows once dead rows recycle,
  // not one per instruction.
  std::vector<kernels::FusedRunOp> ops = {
      ComputeMember("Add", {{-1, 0}, {-1, 1}})};
  for (int i = 1; i < 32; ++i) {
    ops.push_back(ComputeMember("Relu", {{i - 1, -1}}));
  }
  ops.back().materialize = true;
  const std::vector<kernels::FusedRunOperand> operands(
      2, {DType::kFloat32, Shape({8})});
  auto compiled = kernels::CompileFusedRun(ops, operands, DType::kFloat32);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->program.insts.size(), 32u);
  EXPECT_LE(compiled->program.num_rows, 2);
}

// --- shared run-membership rules -------------------------------------------

TEST(FusionMembershipTest, ClassifierAcceptsAndRejectsByRule) {
  using kernels::FusedMemberKind;
  const AttrMap none;
  const AttrMap perm = {{"perm", AttrValue(std::vector<int64_t>{1, 0})}};
  const AttrMap axis = {{"axis", AttrValue(std::vector<int64_t>{1})}};
  const AttrMap dst = {{"dst", AttrValue(DType::kFloat32)}};
  AttrMap dst_extra = dst;
  dst_extra.emplace("truncate", AttrValue(true));
  AttrMap axis_keep = axis;
  axis_keep.emplace("keep_dims", AttrValue(true));
  const AttrMap shape_attr = {{"shape", AttrValue(Shape({3, 4}))}};
  const AttrMap scalar_perm = {{"perm", AttrValue(int64_t{1})}};
  struct Row {
    const char* what;
    const char* op;
    const AttrMap* attrs;
    size_t num_inputs;
    DType dtype;
    Shape shape;
    bool accept;
    FusedMemberKind kind;
  };
  const DType f32 = DType::kFloat32;
  const Shape m({3, 4});
  const std::vector<Row> rows = {
      {"binary op", "Add", &none, 2, f32, m, true, FusedMemberKind::kCompute},
      {"attrs on a plain op", "Add", &axis, 2, f32, m, false, {}},
      {"cast with dst", "Cast", &dst, 1, f32, m, true,
       FusedMemberKind::kCompute},
      {"cast with an extra attr", "Cast", &dst_extra, 1, f32, m, false, {}},
      {"transpose with perm", "Transpose", &perm, 1, f32, m, true,
       FusedMemberKind::kLayout},
      {"transpose without perm", "Transpose", &none, 1, f32, m, false, {}},
      {"transpose with a scalar perm", "Transpose", &scalar_perm, 1, f32, m,
       false, {}},
      {"reshape with shape", "Reshape", &shape_attr, 1, f32, m, true,
       FusedMemberKind::kLayout},
      {"expand_dims without axis", "ExpandDims", &none, 1, f32, m, false, {}},
      {"squeeze without axis", "Squeeze", &none, 1, f32, m, true,
       FusedMemberKind::kLayout},
      {"squeeze with axis", "Squeeze", &axis, 1, f32, m, true,
       FusedMemberKind::kLayout},
      {"squeeze with a foreign attr", "Squeeze", &perm, 1, f32, m, false, {}},
      {"reduction with keep_dims", "Sum", &axis_keep, 1, f32, Shape({3, 1}),
       true, FusedMemberKind::kReduce},
      {"reduction with a foreign attr", "Max", &perm, 1, f32, Shape({3}),
       false, {}},
      {"non-numeric dtype", "Add", &none, 2, DType::kBool, m, false, {}},
      {"non-numeric layout", "Squeeze", &none, 1, DType::kBool, m, false, {}},
      {"transcendental on ints", "Exp", &none, 1, DType::kInt32, m, false, {}},
      {"unary arity mismatch", "Neg", &none, 2, f32, m, false, {}},
      {"binary arity mismatch", "Add", &none, 1, f32, m, false, {}},
      {"layout arity mismatch", "Transpose", &perm, 2, f32, m, false, {}},
      {"reduction arity mismatch", "Sum", &axis, 2, f32, Shape({3}), false,
       {}},
      {"unknown dim", "Relu", &none, 1, f32, Shape({kUnknownDim, 4}), false,
       {}},
      {"not a member op", "MatMul", &none, 2, f32, m, false, {}},
  };
  for (const Row& row : rows) {
    kernels::FusedMemberClass cls;
    EXPECT_EQ(kernels::ClassifyFusedMember(row.op, *row.attrs, row.num_inputs,
                                           row.dtype, row.shape, &cls),
              row.accept)
        << row.what;
    if (row.accept) {
      EXPECT_EQ(cls.kind, row.kind) << row.what;
    }
  }
}

TEST(FusionMembershipTest, OperandCountAndReductionRules) {
  using kernels::FusedMemberClass;
  using kernels::FusedMemberKind;
  const FusedMemberClass add{FusedMemberKind::kCompute,
                             kernels::MicroOpCode::kAdd};
  const FusedMemberClass cast{FusedMemberKind::kCompute,
                              kernels::MicroOpCode::kCast};
  const FusedMemberClass layout{FusedMemberKind::kLayout, {}};
  const FusedMemberClass reduce{FusedMemberKind::kReduce, {}};
  const DType f32 = DType::kFloat32;
  const Shape m({3, 4});
  // Compute members read the member shape, trailing broadcasts, scalars.
  EXPECT_TRUE(kernels::FusedOperandOk(add, f32, m, f32, m));
  EXPECT_TRUE(kernels::FusedOperandOk(add, f32, m, f32, Shape({4})));
  EXPECT_TRUE(kernels::FusedOperandOk(add, f32, m, f32, Shape({1, 1})));
  EXPECT_FALSE(kernels::FusedOperandOk(add, f32, m, f32, Shape({3})));
  EXPECT_FALSE(kernels::FusedOperandOk(add, f32, m, DType::kInt32, m));
  EXPECT_FALSE(kernels::FusedOperandOk(add, f32, m, f32, Shape({kUnknownDim})));
  // Only a cast reads a foreign dtype, and only a numeric one.
  EXPECT_TRUE(kernels::FusedOperandOk(cast, f32, m, DType::kInt32, m));
  EXPECT_FALSE(kernels::FusedOperandOk(cast, f32, m, DType::kBool, m));
  // Layout members read verbatim: same dtype, same element count.
  EXPECT_TRUE(kernels::FusedOperandOk(layout, f32, m, f32, Shape({4, 3})));
  EXPECT_FALSE(kernels::FusedOperandOk(layout, f32, m, f32, Shape({4})));
  EXPECT_FALSE(kernels::FusedOperandOk(layout, f32, m, DType::kInt32, m));
  // A reduction takes no external operand.
  EXPECT_FALSE(kernels::FusedOperandOk(reduce, f32, Shape({3}), f32, m));

  EXPECT_TRUE(kernels::FusedCountFits(12, 12));
  EXPECT_TRUE(kernels::FusedCountFits(1, 12));
  EXPECT_TRUE(kernels::FusedCountFits(12, 1));
  EXPECT_FALSE(kernels::FusedCountFits(6, 12));

  const Shape in({2, 3, 4});
  EXPECT_EQ(kernels::TrailingReduceCount(in, {}), 24);
  EXPECT_EQ(kernels::TrailingReduceCount(in, {2}), 4);
  EXPECT_EQ(kernels::TrailingReduceCount(in, {-1, 1, 2}), 12);
  EXPECT_EQ(kernels::TrailingReduceCount(in, {0}), 0);     // non-trailing
  EXPECT_EQ(kernels::TrailingReduceCount(in, {0, 2}), 0);  // gap
  EXPECT_EQ(kernels::TrailingReduceCount(in, {3}), 0);     // out of range
  const AttrMap trailing = {{"axis", AttrValue(std::vector<int64_t>{2})},
                            {"keep_dims", AttrValue(true)}};
  const AttrMap leading = {{"axis", AttrValue(std::vector<int64_t>{0})}};
  EXPECT_TRUE(kernels::FusedReduceFits(trailing, in, 24));
  EXPECT_FALSE(kernels::FusedReduceFits(trailing, in, 48));  // not full count
  EXPECT_FALSE(kernels::FusedReduceFits(leading, in, 24));
}

TEST(FusionMembershipTest, MemberDescriptionExtractsFoldedAttrs) {
  const kernels::FusedRunOp transpose = kernels::MakeFusedRunOp(
      "Transpose", {{"perm", AttrValue(std::vector<int64_t>{1, 0})}},
      DType::kFloat32, Shape({4, 3}));
  EXPECT_EQ(transpose.perm, (std::vector<int64_t>{1, 0}));
  EXPECT_TRUE(transpose.axes.empty());
  EXPECT_EQ(transpose.shape, Shape({4, 3}));
  const kernels::FusedRunOp mean = kernels::MakeFusedRunOp(
      "Mean",
      {{"axis", AttrValue(std::vector<int64_t>{-1})},
       {"keep_dims", AttrValue(true)}},
      DType::kFloat64, Shape({4, 1}));
  EXPECT_EQ(mean.axes, (std::vector<int64_t>{-1}));
  EXPECT_EQ(mean.dtype, DType::kFloat64);
  EXPECT_TRUE(mean.perm.empty());
  EXPECT_TRUE(mean.args.empty());
  EXPECT_FALSE(mean.materialize);
}

// --- compiled-program cache -------------------------------------------------

// A minimal compilable segment: add(o0, o1) → relu, operands of `n` floats.
void MakeCacheRun(int64_t n, std::vector<kernels::FusedRunOp>* ops,
                  std::vector<kernels::FusedRunOperand>* operands) {
  kernels::FusedRunOp add;
  add.op = "Add";
  add.shape = Shape({n});
  add.args = {{-1, 0}, {-1, 1}};
  kernels::FusedRunOp relu;
  relu.op = "Relu";
  relu.shape = Shape({n});
  relu.args = {{0, -1}};
  relu.materialize = true;
  *ops = {add, relu};
  operands->assign(2, kernels::FusedRunOperand{DType::kFloat32, Shape({n})});
}

TEST(ProgramCacheTest, MissThenHitOnSameSignature) {
  kernels::FusedProgramCache cache(/*capacity=*/8);
  std::vector<kernels::FusedRunOp> ops;
  std::vector<kernels::FusedRunOperand> operands;
  MakeCacheRun(16, &ops, &operands);

  auto first = cache.GetOrCompile(ops, operands, DType::kFloat32);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  auto second = cache.GetOrCompile(ops, operands, DType::kFloat32);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  // The cached artifact is the same program, not a recompile of a different
  // shape: same encoding, same output wiring.
  EXPECT_EQ(second->program.Encode(), first->program.Encode());
  EXPECT_EQ(second->output_members, first->output_members);

  // A different shape is a different signature.
  MakeCacheRun(32, &ops, &operands);
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCacheTest, DonationBitIsPartOfTheSignature) {
  // The compile result's donation plan depends on may_donate, so two runs
  // differing only in ownership proofs must not share an entry.
  kernels::FusedProgramCache cache(/*capacity=*/8);
  std::vector<kernels::FusedRunOp> ops;
  std::vector<kernels::FusedRunOperand> operands;
  MakeCacheRun(16, &ops, &operands);
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  operands[0].may_donate = true;
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCacheTest, LruEvictsColdestEntry) {
  kernels::FusedProgramCache cache(/*capacity=*/2);
  std::vector<kernels::FusedRunOp> ops;
  std::vector<kernels::FusedRunOperand> operands;

  MakeCacheRun(8, &ops, &operands);
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  MakeCacheRun(16, &ops, &operands);
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  // Touch {8} so {16} is coldest.
  MakeCacheRun(8, &ops, &operands);
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  EXPECT_EQ(cache.hits(), 1u);

  MakeCacheRun(32, &ops, &operands);
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  // {8} survived, {16} was evicted.
  MakeCacheRun(8, &ops, &operands);
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  EXPECT_EQ(cache.hits(), 2u);
  MakeCacheRun(16, &ops, &operands);
  ASSERT_TRUE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(ProgramCacheTest, FailedCompilesAreCached) {
  // A rejected segment is rejected identically every step; the cache must
  // remember the failure instead of re-running the compile walk.
  kernels::FusedProgramCache cache(/*capacity=*/8);
  std::vector<kernels::FusedRunOp> ops;
  std::vector<kernels::FusedRunOperand> operands;
  MakeCacheRun(16, &ops, &operands);
  ops[1].op = "MatMul";  // not a micro-op: compilation fails
  EXPECT_FALSE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  EXPECT_FALSE(cache.GetOrCompile(ops, operands, DType::kFloat32).ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

// --- DAG segments on the drain ---------------------------------------------

// A tower of residual diamonds: t = relu(h * s); h = t + h. Every block's h
// is consumed by both the mul and the join add, so a run spanning a block
// boundary carries an in-run value with two readers — a DAG, not a chain.
Tensor ResidualTower(const Tensor& x, const Tensor& s, int blocks) {
  Tensor h = x;
  for (int i = 0; i < blocks; ++i) {
    Tensor t = ops::relu(ops::mul(h, s));
    h = ops::add(t, h);
  }
  return h;
}

TEST_F(FusionTest, DiamondDagFusesAndMatchesUnfused) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({48, 32}, 0, 1, /*seed=*/5);
  Tensor s = ops::scalar<float>(0.5f);

  const uint64_t dag_before = ctx->stats().fused_dag_runs.load();
  ctx->set_fuse_elementwise(true);
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  Tensor fused = ResidualTower(x, s, 12);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_GT(ctx->stats().fused_dag_runs.load(), dag_before)
      << "no window was recognized as a DAG segment";

  ctx->set_fuse_elementwise(false);
  Tensor plain = ResidualTower(x, s, 12);
  ASSERT_TRUE(ctx->Sync().ok());
  EXPECT_TRUE(BitwiseEqual(ToVector<float>(fused), ToVector<float>(plain)));
}

TEST_F(FusionTest, ResetVirtualTimeZeroesEveryStat) {
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({48, 32}, 0, 1, /*seed=*/5);
  Tensor s = ops::scalar<float>(0.5f);
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  (void)ResidualTower(x, s, 12);
  ASSERT_TRUE(ctx->Sync().ok());
  ASSERT_GT(ctx->stats().fused_dag_runs.load(), 0u);

  ctx->ResetVirtualTime();
  const EagerContext::Stats& stats = ctx->stats();
  EXPECT_EQ(stats.eager_ops.load(), 0u);
  EXPECT_EQ(stats.executor_nodes.load(), 0u);
  EXPECT_EQ(stats.function_calls.load(), 0u);
  EXPECT_EQ(stats.traces.load(), 0u);
  EXPECT_EQ(stats.device_copies.load(), 0u);
  EXPECT_EQ(stats.fused_runs.load(), 0u);
  EXPECT_EQ(stats.fused_ops.load(), 0u);
  EXPECT_EQ(stats.fused_dag_runs.load(), 0u);
}

TEST_F(FusionTest, MultiOutputRunMatchesUnfused) {
  // Intermediates held by the test escape the run and must materialize as
  // extra fused outputs; every escaping value must match the unfused bits.
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::random_normal({31, 9}, 0, 1, /*seed=*/19);
  Tensor s = ops::scalar<float>(0.25f);

  auto build = [&](std::vector<Tensor>* kept) {
    Tensor a = ops::add(x, s);
    Tensor b = ops::relu(ops::mul(a, s));
    Tensor c = ops::sub(ops::add(b, a), s);  // a consumed twice (diamond)
    kept->assign({a, b, c});
  };

  ctx->set_fuse_elementwise(true);
  ASSERT_NO_FATAL_FAILURE(BlockQueueHead());
  std::vector<Tensor> fused;
  build(&fused);
  ASSERT_TRUE(ctx->Sync().ok());

  ctx->set_fuse_elementwise(false);
  std::vector<Tensor> plain;
  build(&plain);
  ASSERT_TRUE(ctx->Sync().ok());

  ASSERT_EQ(fused.size(), plain.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_TRUE(
        BitwiseEqual(ToVector<float>(fused[i]), ToVector<float>(plain[i])))
        << "escaping value " << i;
  }
}

}  // namespace
}  // namespace tfe
