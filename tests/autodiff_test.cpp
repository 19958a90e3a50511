// GradientTape behavior (paper §4.2), including the paper's Listings 1 & 2.
#include <gtest/gtest.h>

#include <cmath>

#include "api/tfe.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

Tensor Scalar(float v) { return ops::scalar<float>(v); }

TEST(TapeTest, SimpleSquare) {
  Tensor x = Scalar(3.0f);
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::mul(x, x);
  tape.StopRecording();
  auto grads = tape.gradient(y, {x});
  ASSERT_TRUE(grads.ok());
  EXPECT_FLOAT_EQ((*grads)[0].scalar<float>(), 6.0f);
}

TEST(TapeTest, Listing1NestedTapesSecondDerivative) {
  // Paper Listing 1, verbatim semantics: d2(x*x)/dx2 == 2.
  Tensor x = Scalar(3.0f);
  GradientTape t1;
  GradientTape t2;
  t1.watch(x);
  t2.watch(x);
  Tensor y = ops::mul(x, x);
  auto dy_dx = t2.gradient(y, {x});
  ASSERT_TRUE(dy_dx.ok());
  EXPECT_FLOAT_EQ((*dy_dx)[0].scalar<float>(), 6.0f);
  auto d2y_dx2 = t1.gradient((*dy_dx)[0], {x});
  ASSERT_TRUE(d2y_dx2.ok());
  EXPECT_FLOAT_EQ((*d2y_dx2)[0].scalar<float>(), 2.0f);
}

TEST(TapeTest, Listing2VariablesAutoWatched) {
  // Paper Listing 2: variables are watched automatically.
  Variable x(Scalar(3.0f));
  GradientTape t1;
  GradientTape t2;
  Tensor y = ops::mul(x.value(), x.value());
  auto dy_dx = t2.gradient(y, {x.handle()});
  ASSERT_TRUE(dy_dx.ok());
  EXPECT_FLOAT_EQ((*dy_dx)[0].scalar<float>(), 6.0f);
  auto d2y_dx2 = t1.gradient((*dy_dx)[0], {x.handle()});
  ASSERT_TRUE(d2y_dx2.ok());
  EXPECT_FLOAT_EQ((*d2y_dx2)[0].scalar<float>(), 2.0f);
}

TEST(TapeTest, ThirdDerivative) {
  Tensor x = Scalar(2.0f);
  GradientTape t1;
  GradientTape t2;
  GradientTape t3;
  t1.watch(x);
  t2.watch(x);
  t3.watch(x);
  Tensor y = ops::mul(ops::mul(x, x), x);  // x^3
  Tensor d1 = std::move(t3.gradient(y, {x})).value()[0];   // 3x^2 = 12
  Tensor d2 = std::move(t2.gradient(d1, {x})).value()[0];  // 6x = 12
  Tensor d3 = std::move(t1.gradient(d2, {x})).value()[0];  // 6
  EXPECT_FLOAT_EQ(d1.scalar<float>(), 12.0f);
  EXPECT_FLOAT_EQ(d2.scalar<float>(), 12.0f);
  EXPECT_FLOAT_EQ(d3.scalar<float>(), 6.0f);
}

TEST(TapeTest, UnwatchedSourceYieldsUndefined) {
  Tensor x = Scalar(1.0f);
  Tensor z = Scalar(2.0f);
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::mul(x, x);
  tape.StopRecording();
  auto grads = tape.gradient(y, {z});
  ASSERT_TRUE(grads.ok());
  EXPECT_FALSE((*grads)[0].defined());
}

TEST(TapeTest, NonPersistentSingleUse) {
  Tensor x = Scalar(1.0f);
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::mul(x, x);
  tape.StopRecording();
  ASSERT_TRUE(tape.gradient(y, {x}).ok());
  EXPECT_FALSE(tape.gradient(y, {x}).ok());
}

TEST(TapeTest, PersistentAllowsMultipleGradients) {
  Tensor x = Scalar(2.0f);
  GradientTape tape(/*persistent=*/true);
  tape.watch(x);
  Tensor y = ops::mul(x, x);
  Tensor z = ops::mul(y, x);
  tape.StopRecording();
  EXPECT_FLOAT_EQ(std::move(tape.gradient(y, {x})).value()[0].scalar<float>(),
                  4.0f);
  EXPECT_FLOAT_EQ(std::move(tape.gradient(z, {x})).value()[0].scalar<float>(),
                  12.0f);
}

TEST(TapeTest, FineGrainedControlOverTracing) {
  // "Exposing the tape lets users control which parts of the computation
  // are traced" (§4.2): ops outside any tape are not recorded.
  Tensor x = Scalar(2.0f);
  Tensor untracked = ops::mul(x, x);  // before the tape: not recorded
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::mul(untracked, x);
  tape.StopRecording();
  // d y/dx treats `untracked` as a constant 4: grad = 4, not 12.
  EXPECT_FLOAT_EQ(std::move(tape.gradient(y, {x})).value()[0].scalar<float>(),
                  4.0f);
  EXPECT_EQ(tape.num_entries(), 1);
}

TEST(TapeTest, StopGradientBlocksFlow) {
  Tensor x = Scalar(3.0f);
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::add(ops::mul(x, x), ops::stop_gradient(ops::mul(x, x)));
  tape.StopRecording();
  EXPECT_FLOAT_EQ(std::move(tape.gradient(y, {x})).value()[0].scalar<float>(),
                  6.0f);  // only the unblocked branch contributes
}

TEST(TapeTest, OutputGradientSeed) {
  Tensor x = Scalar(3.0f);
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::mul(x, x);
  tape.StopRecording();
  auto grads = tape.gradient(y, {x}, {Scalar(10.0f)});
  ASSERT_TRUE(grads.ok());
  EXPECT_FLOAT_EQ((*grads)[0].scalar<float>(), 60.0f);
}

TEST(TapeTest, FanOutAccumulates) {
  Tensor x = Scalar(2.0f);
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::add(ops::mul(x, x), ops::mul(x, x));
  tape.StopRecording();
  EXPECT_FLOAT_EQ(std::move(tape.gradient(y, {x})).value()[0].scalar<float>(),
                  8.0f);
}

TEST(TapeTest, NonScalarTargetSumsImplicitly) {
  Tensor x = ops::constant<float>({1, 2, 3}, {3});
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::mul(x, x);
  tape.StopRecording();
  EXPECT_EQ(ToVector<float>(std::move(tape.gradient(y, {x})).value()[0]),
            (std::vector<float>{2, 4, 6}));
}

TEST(TapeTest, BroadcastGradientsReduceCorrectly) {
  Tensor matrix = ops::constant<float>({1, 2, 3, 4}, {2, 2});
  Tensor row = ops::constant<float>({1, 1}, {2});
  GradientTape tape;
  tape.watch(matrix);
  tape.watch(row);
  Tensor y = ops::reduce_sum(ops::mul(matrix, row));
  tape.StopRecording();
  auto grads = std::move(tape.gradient(y, {matrix, row})).value();
  EXPECT_EQ(grads[0].shape(), Shape({2, 2}));
  EXPECT_EQ(grads[1].shape(), Shape({2}));
  EXPECT_EQ(ToVector<float>(grads[1]), (std::vector<float>{4, 6}));
}

TEST(TapeTest, MatMulGradient) {
  Tensor a = ops::constant<float>({1, 2, 3, 4}, {2, 2});
  Tensor b = ops::constant<float>({5, 6, 7, 8}, {2, 2});
  GradientTape tape;
  tape.watch(a);
  tape.watch(b);
  Tensor y = ops::reduce_sum(ops::matmul(a, b));
  tape.StopRecording();
  auto grads = std::move(tape.gradient(y, {a, b})).value();
  // d/dA sum(AB) = ones @ B^T
  EXPECT_EQ(ToVector<float>(grads[0]), (std::vector<float>{11, 15, 11, 15}));
  EXPECT_EQ(ToVector<float>(grads[1]), (std::vector<float>{4, 4, 6, 6}));
}

TEST(TapeTest, VariableUpdateThenGradientSeesNewValue) {
  Variable v(Scalar(2.0f));
  v.assign(Scalar(5.0f));
  GradientTape tape;
  Tensor y = ops::mul(v.value(), v.value());
  tape.StopRecording();
  EXPECT_FLOAT_EQ(y.scalar<float>(), 25.0f);
  EXPECT_FLOAT_EQ(std::move(gradient(tape, y, {v}))[0].scalar<float>(),
                  10.0f);
}

TEST(TapeTest, MultipleVariableReadsAccumulate) {
  Variable v(Scalar(3.0f));
  GradientTape tape;
  // Two separate reads of the same variable.
  Tensor y = ops::mul(v.value(), v.value());
  tape.StopRecording();
  EXPECT_FLOAT_EQ(std::move(gradient(tape, y, {v}))[0].scalar<float>(),
                  6.0f);
}

TEST(TapeTest, GradThroughXent) {
  Tensor logits = ops::constant<float>({1, 2}, {1, 2});
  Tensor labels = ops::constant<int64_t>({1}, {1});
  GradientTape tape;
  tape.watch(logits);
  Tensor loss = ops::reduce_mean(
      ops::sparse_softmax_cross_entropy_with_logits(logits, labels));
  tape.StopRecording();
  auto grads = std::move(tape.gradient(loss, {logits})).value();
  std::vector<float> g = ToVector<float>(grads[0]);
  float p0 = std::exp(1.0f) / (std::exp(1.0f) + std::exp(2.0f));
  EXPECT_NEAR(g[0], p0, 1e-5);
  EXPECT_NEAR(g[1], (1 - p0) - 1, 1e-5);
}

TEST(TapeTest, GatherGradientScattersIntoParams) {
  Tensor params = ops::constant<float>({1, 2, 3}, {3});
  Tensor indices = ops::constant<int32_t>({2, 2, 0}, {3});
  GradientTape tape;
  tape.watch(params);
  Tensor y = ops::reduce_sum(ops::gather(params, indices));
  tape.StopRecording();
  auto grads = std::move(tape.gradient(y, {params})).value();
  EXPECT_EQ(ToVector<float>(grads[0]), (std::vector<float>{1, 0, 2}));
}

TEST(TapeTest, HigherOrderThroughExp) {
  Tensor x = Scalar(0.5f);
  GradientTape outer;
  outer.watch(x);
  Tensor d1;
  {
    GradientTape inner;
    inner.watch(x);
    Tensor y = ops::exp(x);
    inner.StopRecording();
    d1 = std::move(inner.gradient(y, {x})).value()[0];
  }
  outer.StopRecording();
  Tensor d2 = std::move(outer.gradient(d1, {x})).value()[0];
  EXPECT_NEAR(d2.scalar<float>(), std::exp(0.5f), 1e-5);
}

// ---- Finite-difference property tests over the differentiable op set. -----

struct UnaryGradCase {
  std::string name;
  std::function<Tensor(const Tensor&)> fn;
  std::vector<float> probe_points;
};

// Cases print by name: gtest's default byte dump of a case holds heap
// addresses, which would make the listed test names differ on every run.
void PrintTo(const UnaryGradCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class UnaryGradientCheck : public ::testing::TestWithParam<UnaryGradCase> {};

TEST_P(UnaryGradientCheck, MatchesFiniteDifference) {
  const UnaryGradCase& test_case = GetParam();
  for (float point : test_case.probe_points) {
    Tensor x = ops::scalar<float>(point);
    GradientTape tape;
    tape.watch(x);
    Tensor y = test_case.fn(x);
    tape.StopRecording();
    Tensor grad = std::move(tape.gradient(y, {x})).value()[0];
    ASSERT_TRUE(grad.defined()) << test_case.name;

    const float eps = 1e-3f;
    float up = test_case.fn(ops::scalar<float>(point + eps)).scalar<float>();
    float down = test_case.fn(ops::scalar<float>(point - eps)).scalar<float>();
    float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grad.scalar<float>(), numeric,
                1e-2 * (1 + std::abs(numeric)))
        << test_case.name << " at " << point;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradientCheck,
    ::testing::Values(
        UnaryGradCase{"neg", [](const Tensor& x) { return ops::neg(x); },
                      {-1.5f, 2.0f}},
        UnaryGradCase{"abs", [](const Tensor& x) { return ops::abs(x); },
                      {-1.5f, 2.0f}},
        UnaryGradCase{"exp", [](const Tensor& x) { return ops::exp(x); },
                      {-1.0f, 0.5f}},
        UnaryGradCase{"log", [](const Tensor& x) { return ops::log(x); },
                      {0.5f, 2.0f}},
        UnaryGradCase{"sqrt", [](const Tensor& x) { return ops::sqrt(x); },
                      {0.25f, 4.0f}},
        UnaryGradCase{"rsqrt", [](const Tensor& x) { return ops::rsqrt(x); },
                      {0.25f, 4.0f}},
        UnaryGradCase{"square",
                      [](const Tensor& x) { return ops::square(x); },
                      {-2.0f, 3.0f}},
        UnaryGradCase{"tanh", [](const Tensor& x) { return ops::tanh(x); },
                      {-0.7f, 0.3f}},
        UnaryGradCase{"sigmoid",
                      [](const Tensor& x) { return ops::sigmoid(x); },
                      {-1.0f, 1.0f}},
        UnaryGradCase{"relu", [](const Tensor& x) { return ops::relu(x); },
                      {-1.0f, 2.0f}},
        UnaryGradCase{"sin", [](const Tensor& x) { return ops::sin(x); },
                      {0.3f, 1.2f}},
        UnaryGradCase{"cos", [](const Tensor& x) { return ops::cos(x); },
                      {0.3f, 1.2f}},
        UnaryGradCase{"reciprocal",
                      [](const Tensor& x) { return ops::reciprocal(x); },
                      {0.5f, 2.0f}},
        UnaryGradCase{"softplus_composite",
                      [](const Tensor& x) {
                        return ops::log(ops::add(ops::exp(x),
                                                 ops::ones_like(x)));
                      },
                      {-1.0f, 1.0f}}),
    [](const ::testing::TestParamInfo<UnaryGradCase>& info) {
      return info.param.name;
    });

struct BinaryGradCase {
  std::string name;
  std::function<Tensor(const Tensor&, const Tensor&)> fn;
  float a, b;
};

void PrintTo(const BinaryGradCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class BinaryGradientCheck : public ::testing::TestWithParam<BinaryGradCase> {};

TEST_P(BinaryGradientCheck, MatchesFiniteDifference) {
  const BinaryGradCase& test_case = GetParam();
  Tensor a = ops::scalar<float>(test_case.a);
  Tensor b = ops::scalar<float>(test_case.b);
  GradientTape tape;
  tape.watch(a);
  tape.watch(b);
  Tensor y = test_case.fn(a, b);
  tape.StopRecording();
  auto grads = std::move(tape.gradient(y, {a, b})).value();

  const float eps = 1e-3f;
  auto eval = [&](float va, float vb) {
    return test_case.fn(ops::scalar<float>(va), ops::scalar<float>(vb))
        .scalar<float>();
  };
  float da = (eval(test_case.a + eps, test_case.b) -
              eval(test_case.a - eps, test_case.b)) /
             (2 * eps);
  float db = (eval(test_case.a, test_case.b + eps) -
              eval(test_case.a, test_case.b - eps)) /
             (2 * eps);
  ASSERT_TRUE(grads[0].defined());
  ASSERT_TRUE(grads[1].defined());
  EXPECT_NEAR(grads[0].scalar<float>(), da, 1e-2 * (1 + std::abs(da)))
      << test_case.name;
  EXPECT_NEAR(grads[1].scalar<float>(), db, 1e-2 * (1 + std::abs(db)))
      << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryOps, BinaryGradientCheck,
    ::testing::Values(
        BinaryGradCase{"add", ops::add, 1.5f, -2.0f},
        BinaryGradCase{"sub", ops::sub, 1.5f, -2.0f},
        BinaryGradCase{"mul", ops::mul, 1.5f, -2.0f},
        BinaryGradCase{"div", ops::div, 1.5f, -2.0f},
        BinaryGradCase{"pow", ops::pow, 1.5f, 2.5f},
        BinaryGradCase{"maximum", ops::maximum, 1.5f, -2.0f},
        BinaryGradCase{"minimum", ops::minimum, 1.5f, -2.0f},
        BinaryGradCase{"squared_difference", ops::squared_difference, 1.5f,
                       -2.0f}),
    [](const ::testing::TestParamInfo<BinaryGradCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace tfe
