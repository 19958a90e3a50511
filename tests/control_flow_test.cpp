// Staged control flow (tf.cond / tf.while_loop analogs, paper §4.1) and the
// mutable hash table (§4.3).
#include <gtest/gtest.h>

#include <filesystem>

#include "api/tfe.h"
#include "profiler/metrics.h"
#include "staging/control_flow.h"
#include "state/hash_table.h"
#include "models/optimizers.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

Function DoubleFn() {
  return function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::mul(args[0], ops::fill(DType::kFloat32, {}, 2.0))};
      },
      "double_branch");
}

Function SquareFn() {
  return function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::square(args[0])};
      },
      "square_branch");
}

TEST(CondTest, EagerPicksBranchByValue) {
  Function t = DoubleFn();
  Function f = SquareFn();
  Tensor x = ops::scalar<float>(3.0f);
  EXPECT_FLOAT_EQ(
      ops::cond(ops::constant<bool>({true}, {}), t, f, {x})[0].scalar<float>(),
      6.0f);
  EXPECT_FLOAT_EQ(
      ops::cond(ops::constant<bool>({false}, {}), t, f, {x})[0].scalar<float>(),
      9.0f);
}

TEST(CondTest, StagedCondChoosesAtExecutionTime) {
  // Unlike baked host conditionals, a staged cond re-decides per execution.
  Function t = DoubleFn();
  Function f = SquareFn();
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor is_positive = ops::greater(args[0], ops::zeros_like(args[0]));
        return ops::cond(is_positive, t, f, {args[0]});
      },
      "staged_cond");
  EXPECT_FLOAT_EQ(staged({ops::scalar<float>(3.0f)})[0].scalar<float>(),
                  6.0f);  // positive -> doubled
  EXPECT_FLOAT_EQ(staged({ops::scalar<float>(-3.0f)})[0].scalar<float>(),
                  9.0f);  // negative -> squared
  EXPECT_EQ(staged.num_traces(), 1);  // ONE graph serves both outcomes
}

TEST(CondTest, BranchesWithCaptures) {
  Tensor bonus = ops::scalar<float>(100.0f);
  Function with_bonus = function(
      [bonus](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], bonus)};
      },
      "with_bonus");
  Function plain = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::identity(args[0])};
      },
      "plain");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor big = ops::greater(args[0], ops::fill(DType::kFloat32, {}, 10.0));
        return ops::cond(big, with_bonus, plain, {args[0]});
      },
      "cond_captures");
  EXPECT_FLOAT_EQ(staged({ops::scalar<float>(20.0f)})[0].scalar<float>(),
                  120.0f);
  EXPECT_FLOAT_EQ(staged({ops::scalar<float>(5.0f)})[0].scalar<float>(),
                  5.0f);
}

TEST(CondTest, MismatchedBranchesRejected) {
  Function one_out = DoubleFn();
  Function two_out = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {args[0], args[0]};
      },
      "two_out");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor pred = ops::greater(args[0], ops::zeros_like(args[0]));
        return ops::cond(pred, one_out, two_out, {args[0]});
      },
      "bad_cond");
  EXPECT_THROW(staged({ops::scalar<float>(1.0f)}), RuntimeError);
}

TEST(CondTest, GradientFlowsThroughTakenBranch) {
  Function t = DoubleFn();   // d/dx = 2
  Function f = SquareFn();   // d/dx = 2x
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor pred = ops::greater(args[0], ops::zeros_like(args[0]));
        return ops::cond(pred, t, f, {args[0]});
      },
      "grad_cond");
  for (float x_value : {3.0f, -3.0f}) {
    Tensor x = ops::scalar<float>(x_value);
    GradientTape tape;
    tape.watch(x);
    Tensor y = staged({x})[0];
    tape.StopRecording();
    Tensor grad = std::move(tape.gradient(y, {x})).value()[0];
    float expected = x_value > 0 ? 2.0f : 2.0f * x_value;
    EXPECT_FLOAT_EQ(grad.scalar<float>(), expected) << "at x=" << x_value;
  }
}

TEST(WhileTest, EagerLoop) {
  Function below_100 = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], ops::fill(DType::kFloat32, {}, 100.0))};
      },
      "below_100");
  Function double_it = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::mul(vars[0], ops::fill(DType::kFloat32, {}, 2.0))};
      },
      "double_it");
  std::vector<Tensor> result =
      ops::while_loop(below_100, double_it, {ops::scalar<float>(3.0f)});
  EXPECT_FLOAT_EQ(result[0].scalar<float>(), 192.0f);  // 3*2^6
}

TEST(WhileTest, StagedLoopRunsDataDependentIterations) {
  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        // vars = {value, limit}
        return {ops::less(vars[0], vars[1])};
      },
      "below_limit");
  Function body = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::mul(vars[0], ops::fill(DType::kFloat32, {}, 2.0)),
                vars[1]};
      },
      "double_body");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return ops::while_loop(below, body, {args[0], args[1]});
      },
      "staged_while");
  // Iteration count depends on the runtime values — impossible with an
  // unrolled host loop, exactly the paper's point about tf.while.
  EXPECT_FLOAT_EQ(
      staged({ops::scalar<float>(1.0f), ops::scalar<float>(10.0f)})[0]
          .scalar<float>(),
      16.0f);
  EXPECT_FLOAT_EQ(
      staged({ops::scalar<float>(1.0f), ops::scalar<float>(1000.0f)})[0]
          .scalar<float>(),
      1024.0f);
  EXPECT_EQ(staged.num_traces(), 1);
}

TEST(WhileTest, MaximumIterationsGuards) {
  Function always = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::constant<bool>({true}, {})};
      },
      "always_true");
  Function id_body = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {vars[0]};
      },
      "id_body");
  EXPECT_THROW(
      ops::while_loop(always, id_body, {ops::scalar<float>(1.0f)}, 10),
      RuntimeError);
}

TEST(WhileGradTest, BitwiseMatchesUnrolledTapeGradient) {
  // The acceptance bar for the While gradient: replaying the staged body
  // backward per iteration (with capture grads threaded through zero-seeded
  // accumulators) must reproduce the eager tape's gradient BITWISE, because
  // both reduce to the same flat left-fold of per-op contributions in the
  // same reverse order. `w` is used twice per iteration so accumulation
  // order inside an iteration matters too.
  Tensor w = ops::scalar<float>(1.1f);
  Tensor b = ops::scalar<float>(0.25f);
  const int kIters = 5;
  auto step = [&](const Tensor& x) {
    return ops::add(ops::add(ops::mul(x, w), b),
                    ops::mul(ops::square(x), w));
  };

  // Unrolled baseline: the same body math applied eagerly, op by op, under
  // a tape.
  Tensor x0 = ops::scalar<float>(0.5f);
  GradientTape unrolled;
  unrolled.watch(x0);
  unrolled.watch(w);
  unrolled.watch(b);
  Tensor x = x0;
  for (int i = 0; i < kIters; ++i) x = step(x);
  unrolled.StopRecording();
  std::vector<Tensor> want =
      std::move(unrolled.gradient(x, {x0, w, b})).value();

  // Staged: one While node over vars {counter, x}; w and b ride along as
  // value captures of the body function.
  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], ops::fill(DType::kFloat32, {}, 5.0))};
      },
      "wg_below");
  Function body = function(
      [&](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::add(vars[0], ops::fill(DType::kFloat32, {}, 1.0)),
                step(vars[1])};
      },
      "wg_body");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::while_loop(below, body, {args[0], args[1]})[1]};
      },
      "wg_staged");
  GradientTape tape;
  tape.watch(x0);
  tape.watch(w);
  tape.watch(b);
  Tensor y = staged({ops::scalar<float>(0.0f), x0})[0];
  tape.StopRecording();
  std::vector<Tensor> got = std::move(tape.gradient(y, {x0, w, b})).value();

  EXPECT_EQ(y.scalar<float>(), x.scalar<float>());  // forward parity first
  ASSERT_EQ(got.size(), want.size());
  const char* names[] = {"dx0", "dw", "db"};
  for (size_t i = 0; i < got.size(); ++i) {
    float g = got[i].scalar<float>();
    float e = want[i].scalar<float>();
    EXPECT_EQ(g, e) << names[i] << " diverged: staged=" << g
                    << " unrolled=" << e;
  }
}

TEST(WhileGradTest, DataDependentIterationCount) {
  // One staged trace; the gradient replays however many iterations the
  // forward pass actually ran — 2^N with N decided at execution time.
  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], vars[1])};  // {value, limit}
      },
      "wgd_below");
  Function body = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::mul(vars[0], ops::fill(DType::kFloat32, {}, 2.0)),
                vars[1]};
      },
      "wgd_body");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::while_loop(below, body, {args[0], args[1]})[0]};
      },
      "wgd_staged");
  struct Case { float limit; float expected_grad; };
  for (const Case& c : {Case{10.0f, 16.0f}, Case{1000.0f, 1024.0f}}) {
    Tensor x = ops::scalar<float>(1.0f);
    GradientTape tape;
    tape.watch(x);
    Tensor y = staged({x, ops::scalar<float>(c.limit)})[0];
    tape.StopRecording();
    Tensor grad = std::move(tape.gradient(y, {x})).value()[0];
    EXPECT_FLOAT_EQ(grad.scalar<float>(), c.expected_grad)
        << "limit=" << c.limit;
  }
  EXPECT_EQ(staged.num_traces(), 1);
}

TEST(WhileGradTest, GradientsSurviveContextReset) {
  // Function names come from each context's library, so a fresh context
  // hands out the same names again; a backward cached under a name in one
  // context must never be found from another.
  auto while_grad = [] {
    Function below = function(
        [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
          return {ops::less(vars[0], vars[1])};
        },
        "wgr_below");
    Function body = function(
        [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
          return {ops::mul(vars[0], ops::fill(DType::kFloat32, {}, 2.0)),
                  vars[1]};
        },
        "wgr_body");
    Function staged = function(
        [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
          return {ops::while_loop(below, body, {args[0], args[1]})[0]};
        },
        "wgr_staged");
    Tensor x = ops::scalar<float>(1.0f);
    GradientTape tape;
    tape.watch(x);
    Tensor y = staged({x, ops::scalar<float>(10.0f)})[0];
    tape.StopRecording();
    return tape.gradient(y, {x});
  };
  auto call_grad = [] {
    Function cube = function(
        [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
          return {ops::mul(ops::square(args[0]), args[0])};
        },
        "wgr_cube");
    Tensor x = ops::scalar<float>(2.0f);
    GradientTape tape;
    tape.watch(x);
    Tensor y = cube({x})[0];
    tape.StopRecording();
    return tape.gradient(y, {x});
  };
  for (int round = 0; round < 2; ++round) {
    EagerContext::ResetGlobal(EagerContext::Options{});
    auto loop = while_grad();
    ASSERT_TRUE(loop.ok()) << "round " << round << ": "
                           << loop.status().ToString();
    EXPECT_FLOAT_EQ((*loop)[0].scalar<float>(), 16.0f);
    auto call = call_grad();
    ASSERT_TRUE(call.ok()) << "round " << round << ": "
                           << call.status().ToString();
    EXPECT_FLOAT_EQ((*call)[0].scalar<float>(), 12.0f);
  }
}

TEST(WhileGradTest, OneGraphTrainingStep) {
  // Forward while_loop AND its gradient staged into a single graph
  // function: the tape lives inside the trace, so tape.gradient records a
  // WhileGrad node instead of running one. `w` is threaded as a loop
  // variable (passes through each iteration unchanged), exercising
  // loop-variable gradient accumulation across iterations.
  const int kIters = 4;
  auto step = [](const Tensor& x, const Tensor& w) {
    return ops::add(ops::mul(x, w), ops::mul(ops::square(x), w));
  };
  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], ops::fill(DType::kFloat32, {}, 4.0))};
      },
      "wgt_below");
  Function body = function(
      [&](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::add(vars[0], ops::fill(DType::kFloat32, {}, 1.0)),
                step(vars[1], vars[2]), vars[2]};
      },
      "wgt_body");
  Function train = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        // args = {x0, w}
        GradientTape tape;
        tape.watch(args[0]);
        tape.watch(args[1]);
        Tensor zero = ops::fill(DType::kFloat32, {}, 0.0);
        std::vector<Tensor> out =
            ops::while_loop(below, body, {zero, args[0], args[1]});
        Tensor y = out[1];
        tape.StopRecording();
        std::vector<Tensor> grads =
            std::move(tape.gradient(y, {args[0], args[1]})).value();
        return {y, grads[0], grads[1]};
      },
      "wgt_train");

  auto eager_reference = [&](float x0v, float wv) {
    Tensor x0 = ops::scalar<float>(x0v);
    Tensor w = ops::scalar<float>(wv);
    GradientTape tape;
    tape.watch(x0);
    tape.watch(w);
    Tensor x = x0;
    for (int i = 0; i < kIters; ++i) x = step(x, w);
    tape.StopRecording();
    std::vector<Tensor> grads =
        std::move(tape.gradient(x, {x0, w})).value();
    return std::vector<float>{x.scalar<float>(), grads[0].scalar<float>(),
                              grads[1].scalar<float>()};
  };

  struct Case { float x0, w; };
  for (const Case& c : {Case{0.5f, 1.1f}, Case{0.25f, 0.9f}}) {
    std::vector<Tensor> got =
        train({ops::scalar<float>(c.x0), ops::scalar<float>(c.w)});
    std::vector<float> want = eager_reference(c.x0, c.w);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_FLOAT_EQ(got[i].scalar<float>(), want[i])
          << "output " << i << " at x0=" << c.x0;
    }
  }
  EXPECT_EQ(train.num_traces(), 1);  // forward + backward in ONE graph
}

TEST(WhileTest, LoopMetricsAndBodyCacheHits) {
  profiler::Counter* iters =
      profiler::Metrics().GetCounter("loop.iterations");
  profiler::Counter* hits =
      profiler::Metrics().GetCounter("loop.body_cache_hit");
  uint64_t iters_before = iters->value();
  uint64_t hits_before = hits->value();

  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], ops::fill(DType::kFloat32, {}, 8.0))};
      },
      "lm_below");
  Function body = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::add(vars[0], ops::fill(DType::kFloat32, {}, 1.0))};
      },
      "lm_body");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return ops::while_loop(below, body, {args[0]});
      },
      "lm_staged");
  Tensor out = staged({ops::scalar<float>(0.0f)})[0];
  EXPECT_FLOAT_EQ(out.scalar<float>(), 8.0f);

  uint64_t ran = iters->value() - iters_before;
  uint64_t hit = hits->value() - hits_before;
  EXPECT_EQ(ran, 8u);
  // The body's execution variant is resolved once, before the loop; at
  // worst the first iteration pays the build, all later ones hit (the
  // >=90% steady-state acceptance bar).
  EXPECT_GE(hit, ran - 1);
}

TEST(RecursionTest, FactorialViaRecursiveCall) {
  // The recursive self-call records against the *declared* signature —
  // "fact_rt" is not in the library yet while its own body is tracing.
  std::vector<TypeAndShape> sig = {{DType::kFloat32, Shape({})}};
  auto fact = DefineRecursiveFunction(
      "fact_rt", sig, sig,
      [&](const std::vector<Tensor>& args)
          -> StatusOr<std::vector<Tensor>> {
        // Constants come from ops::fill so the branches stay capture-free
        // (an eager constant would become a capture, which recursive
        // functions reject).
        Function base = function(
            [](const std::vector<Tensor>& a) -> std::vector<Tensor> {
              return {ops::fill(DType::kFloat32, {}, 1.0)};
            },
            "fact_rt_base");
        Function rec = function(
            [&](const std::vector<Tensor>& a) -> std::vector<Tensor> {
              Tensor one = ops::fill(DType::kFloat32, {}, 1.0);
              Tensor smaller = ops::call("fact_rt", {ops::sub(a[0], one)},
                                         {{DType::kFloat32, Shape({})}})[0];
              return {ops::mul(a[0], smaller)};
            },
            "fact_rt_rec");
        Tensor pred =
            ops::greater(args[0], ops::fill(DType::kFloat32, {}, 1.0));
        return ops::cond(pred, rec, base, {args[0]});
      });
  ASSERT_TRUE(fact.ok()) << fact.status().message();

  Tensor five = ops::scalar<float>(5.0f);
  Tensor out = ops::call("fact_rt", {five}, {{DType::kFloat32, Shape({})}})[0];
  EXPECT_FLOAT_EQ(out.scalar<float>(), 120.0f);
  Tensor one = ops::scalar<float>(1.0f);
  EXPECT_FLOAT_EQ(
      ops::call("fact_rt", {one}, {{DType::kFloat32, Shape({})}})[0]
          .scalar<float>(),
      1.0f);
}

TEST(RecursionTest, MutualRecursion) {
  // is_even / is_odd defined in terms of each other; the first definition
  // calls a sibling that does not exist yet.
  std::vector<TypeAndShape> sig = {{DType::kFloat32, Shape({})}};
  auto parity_body = [](const char* other, double base_value) {
    return [other, base_value](const std::vector<Tensor>& args)
               -> StatusOr<std::vector<Tensor>> {
      Function base = function(
          [base_value](const std::vector<Tensor>& a) -> std::vector<Tensor> {
            return {ops::fill(DType::kFloat32, {}, base_value)};
          },
          std::string("parity_base_") + other);
      Function rec = function(
          [other](const std::vector<Tensor>& a) -> std::vector<Tensor> {
            Tensor one = ops::fill(DType::kFloat32, {}, 1.0);
            return {ops::call(other, {ops::sub(a[0], one)},
                              {{DType::kFloat32, Shape({})}})[0]};
          },
          std::string("parity_rec_") + other);
      Tensor pred =
          ops::greater(args[0], ops::fill(DType::kFloat32, {}, 0.0));
      return ops::cond(pred, rec, base, {args[0]});
    };
  };
  auto is_even =
      DefineRecursiveFunction("rt_is_even", sig, sig,
                              parity_body("rt_is_odd", 1.0));
  ASSERT_TRUE(is_even.ok()) << is_even.status().message();
  auto is_odd =
      DefineRecursiveFunction("rt_is_odd", sig, sig,
                              parity_body("rt_is_even", 0.0));
  ASSERT_TRUE(is_odd.ok()) << is_odd.status().message();

  auto run = [](const char* name, float n) {
    return ops::call(name, {ops::scalar<float>(n)},
                     {{DType::kFloat32, Shape({})}})[0]
        .scalar<float>();
  };
  EXPECT_FLOAT_EQ(run("rt_is_even", 6.0f), 1.0f);
  EXPECT_FLOAT_EQ(run("rt_is_even", 3.0f), 0.0f);
  EXPECT_FLOAT_EQ(run("rt_is_odd", 7.0f), 1.0f);
  EXPECT_FLOAT_EQ(run("rt_is_odd", 0.0f), 0.0f);
}

TEST(RecursionTest, DepthOverflowPoisonsOutputs) {
  // No base case: execution recurses until the Call kernel's constant cap
  // (kMaxCallDepth = 64) and the FailedPrecondition poisons the output like
  // any deferred kernel error.
  std::vector<TypeAndShape> sig = {{DType::kFloat32, Shape({})}};
  auto inf = DefineRecursiveFunction(
      "rt_infinite", sig, sig,
      [](const std::vector<Tensor>& args) -> StatusOr<std::vector<Tensor>> {
        return std::vector<Tensor>{
            ops::call("rt_infinite", {args[0]},
                      {{DType::kFloat32, Shape({})}})[0]};
      });
  ASSERT_TRUE(inf.ok()) << inf.status().message();
  EXPECT_THROW(
      {
        Tensor out = ops::call("rt_infinite", {ops::scalar<float>(1.0f)},
                               {{DType::kFloat32, Shape({})}})[0];
        out.scalar<float>();
      },
      RuntimeError);
}

TEST(RecursionTest, CapturingRecursiveFunctionRejected) {
  // Implicit value captures would change the recursive call's signature
  // mid-trace; they must be passed as explicit arguments instead.
  Tensor outside = ops::scalar<float>(2.0f);
  std::vector<TypeAndShape> sig = {{DType::kFloat32, Shape({})}};
  auto bad = DefineRecursiveFunction(
      "rt_capturing", sig, sig,
      [&](const std::vector<Tensor>& args) -> StatusOr<std::vector<Tensor>> {
        return std::vector<Tensor>{ops::mul(args[0], outside)};
      });
  EXPECT_FALSE(bad.ok());
}

TEST(HashTableTest, InsertLookupSize) {
  HashTable table(DType::kFloat32, Shape({2}));
  EXPECT_EQ(table.size().scalar<int64_t>(), 0);
  table.insert(ops::constant<int64_t>({1, 2}, {2}),
               ops::constant<float>({10, 11, 20, 21}, {2, 2}));
  EXPECT_EQ(table.size().scalar<int64_t>(), 2);
  Tensor found = table.lookup(ops::constant<int64_t>({2, 5, 1}, {3}),
                              ops::constant<float>({-1, -1}, {2}));
  EXPECT_EQ(ToVector<float>(found),
            (std::vector<float>{20, 21, -1, -1, 10, 11}));
}

TEST(HashTableTest, InsertOverwrites) {
  HashTable table(DType::kFloat32, Shape({}));
  table.insert(ops::constant<int64_t>({7}, {1}), ops::constant<float>({1}, {1}));
  table.insert(ops::constant<int64_t>({7}, {1}), ops::constant<float>({2}, {1}));
  EXPECT_EQ(table.size().scalar<int64_t>(), 1);
  Tensor found = table.lookup(ops::constant<int64_t>({7}, {1}),
                              ops::scalar<float>(0));
  EXPECT_FLOAT_EQ(found.data<float>()[0], 2.0f);
}

TEST(HashTableTest, WorksInsideStagedFunctions) {
  HashTable table(DType::kFloat32, Shape({}));
  Function remember = function(
      [&table](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor keys = ops::cast(args[0], DType::kInt64);
        table.insert(keys, args[1]);
        return {table.size()};
      },
      "remember");
  remember({ops::constant<int64_t>({1, 2}, {2}),
            ops::constant<float>({1.5f, 2.5f}, {2})});
  Tensor size = remember({ops::constant<int64_t>({3, 4}, {2}),
                          ops::constant<float>({3.5f, 4.5f}, {2})})[0];
  EXPECT_EQ(size.scalar<int64_t>(), 4);
  Tensor found = table.lookup(ops::constant<int64_t>({3}, {1}),
                              ops::scalar<float>(-1));
  EXPECT_FLOAT_EQ(found.data<float>()[0], 3.5f);
}

TEST(HashTableTest, CheckpointRoundTrip) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "tfe_table_ckpt").string();
  std::filesystem::remove_all(dir);
  {
    HashTable table(DType::kFloat32, Shape({2}));
    table.insert(ops::constant<int64_t>({5, 9}, {2}),
                 ops::constant<float>({1, 2, 3, 4}, {2, 2}));
    Checkpoint checkpoint;
    checkpoint.TrackChild("table", &table);
    ASSERT_TRUE(checkpoint.Save(dir).ok());
  }
  {
    HashTable table(DType::kFloat32, Shape({2}));
    Checkpoint checkpoint;
    checkpoint.TrackChild("table", &table);
    ASSERT_TRUE(checkpoint.Restore(dir).ok());
    EXPECT_EQ(table.size().scalar<int64_t>(), 2);
    Tensor found = table.lookup(ops::constant<int64_t>({9}, {1}),
                                ops::constant<float>({0, 0}, {2}));
    EXPECT_EQ(ToVector<float>(found), (std::vector<float>{3, 4}));
  }
}

TEST(OptimizerTest, SgdMomentumConverges) {
  // Minimize (w - 3)^2 with momentum; slots are created lazily.
  Variable w(ops::scalar<float>(0.0f));
  models::SGD sgd(0.1, 0.9);
  for (int i = 0; i < 200; ++i) {
    GradientTape tape;
    Tensor loss = ops::square(ops::sub(w.value(), ops::scalar<float>(3.0f)));
    tape.StopRecording();
    sgd.ApplyGradients({w}, gradient(tape, loss, {w}));
  }
  EXPECT_NEAR(w.value().scalar<float>(), 3.0f, 0.1f);
  EXPECT_EQ(sgd.tracked_variables().size(), 1u);  // one momentum slot
}

TEST(OptimizerTest, AdamInsideStagedTrainStep) {
  Variable w(ops::constant<float>({0, 0}, {2}));
  models::Adam adam(0.1);
  Tensor target = ops::constant<float>({1.0f, -2.0f}, {2});
  Function step = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        GradientTape tape;
        Tensor loss =
            ops::reduce_sum(ops::square(ops::sub(w.value(), args[0])));
        tape.StopRecording();
        adam.ApplyGradients({w}, gradient(tape, loss, {w}));
        return {loss};
      },
      "adam_step");
  float first = step({target})[0].scalar<float>();
  for (int i = 0; i < 100; ++i) step({target});
  float last = step({target})[0].scalar<float>();
  EXPECT_LT(last, first * 0.01f);
  EXPECT_EQ(step.num_traces(), 1);
  EXPECT_EQ(adam.tracked_variables().size(), 3u);  // step + m + v
}

TEST(OptimizerTest, OptimizerStateCheckpoints) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "tfe_opt_ckpt").string();
  std::filesystem::remove_all(dir);
  Variable w(ops::scalar<float>(0.0f));
  models::SGD sgd(0.1, 0.9);
  {
    GradientTape tape;
    Tensor loss = ops::square(ops::sub(w.value(), ops::scalar<float>(3.0f)));
    tape.StopRecording();
    sgd.ApplyGradients({w}, gradient(tape, loss, {w}));
  }
  Checkpoint checkpoint;
  checkpoint.TrackChild("optimizer", &sgd);
  ASSERT_TRUE(checkpoint.Save(dir).ok());

  models::SGD restored_sgd(0.1, 0.9);
  Variable w2(ops::scalar<float>(0.0f));
  // Slots match by tracked edge name; create the slot first.
  {
    GradientTape tape;
    Tensor loss = ops::square(ops::sub(w2.value(), ops::scalar<float>(3.0f)));
    tape.StopRecording();
    restored_sgd.ApplyGradients({w2}, gradient(tape, loss, {w2}));
  }
  Checkpoint restore_checkpoint;
  restore_checkpoint.TrackChild("optimizer", &restored_sgd);
  auto report = restore_checkpoint.Restore(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->restored_variables, 1);
}

}  // namespace
}  // namespace tfe
