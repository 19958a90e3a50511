// LSTM / RNN drivers: unrolled (host loop, differentiable) vs. dynamic
// (staged while_loop with data-dependent iteration count).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "api/tfe.h"
#include "models/mlp.h"
#include "models/rnn.h"

namespace tfe {
namespace {

TEST(LstmTest, SingleStepShapesAndBounds) {
  models::LSTMCell cell(3, 4, /*seed=*/9);
  Tensor x = ops::random_normal({2, 3}, 0, 1, /*seed=*/10);
  auto state = cell(x, cell.ZeroState(2));
  EXPECT_EQ(state.h.shape(), Shape({2, 4}));
  EXPECT_EQ(state.c.shape(), Shape({2, 4}));
  for (float value : tensor_util::ToVector<float>(state.h)) {
    EXPECT_GE(value, -1.0f);  // h = o * tanh(c)
    EXPECT_LE(value, 1.0f);
  }
}

TEST(LstmTest, ForgetEverythingWithZeroInput) {
  // With zero kernel/bias, gates sit at sigmoid(0)=0.5, candidate tanh(0)=0:
  // c' = 0.5*c, h' = 0.5*tanh(c').
  models::LSTMCell cell(2, 2, /*seed=*/1);
  cell.variables()[0].assign(ops::zeros(DType::kFloat32, {4, 8}));
  cell.variables()[1].assign(ops::zeros(DType::kFloat32, {8}));
  Tensor x = ops::zeros(DType::kFloat32, {1, 2});
  models::LSTMCell::State state;
  state.h = ops::zeros(DType::kFloat32, {1, 2});
  state.c = ops::constant<float>({2.0f, -2.0f}, {1, 2});
  auto next = cell(x, state);
  EXPECT_NEAR(next.c.data<float>()[0], 1.0f, 1e-5);
  EXPECT_NEAR(next.c.data<float>()[1], -1.0f, 1e-5);
  EXPECT_NEAR(next.h.data<float>()[0], 0.5f * std::tanh(1.0f), 1e-5);
}

TEST(RnnTest, DynamicMatchesUnrolledAtFullLength) {
  models::LSTMCell cell(3, 5, /*seed=*/21);
  Tensor sequence = ops::random_normal({2, 6, 3}, 0, 1, /*seed=*/22);
  Tensor unrolled = models::UnrolledRnn(cell, sequence);
  Tensor dynamic = models::DynamicRnn(cell, sequence,
                                      ops::fill(DType::kInt32, {}, 6.0));
  EXPECT_TRUE(tensor_util::AllClose(unrolled, dynamic, 1e-5, 1e-6));
}

TEST(RnnTest, DynamicStopsAtRuntimeLength) {
  models::LSTMCell cell(3, 5, /*seed=*/31);
  Tensor sequence = ops::random_normal({1, 8, 3}, 0, 1, /*seed=*/32);
  // Truncated run == unrolled run over the prefix.
  Tensor prefix = ops::slice(sequence, {0, 0, 3 - 3}, {-1, 3, -1});
  Tensor expected = models::UnrolledRnn(cell, prefix);
  Tensor dynamic = models::DynamicRnn(cell, sequence,
                                      ops::fill(DType::kInt32, {}, 3.0));
  EXPECT_TRUE(tensor_util::AllClose(expected, dynamic, 1e-5, 1e-6));
}

TEST(RnnTest, DynamicRnnInsideOneStagedTrace) {
  // One trace serves every sequence length — the tf.while payoff.
  models::LSTMCell cell(2, 3, /*seed=*/41);
  Tensor sequence = ops::random_normal({1, 10, 2}, 0, 1, /*seed=*/42);
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {models::DynamicRnn(cell, sequence, args[0])};
      },
      "staged_dynamic_rnn");
  Tensor short_run = staged({ops::fill(DType::kInt32, {}, 2.0)})[0];
  Tensor long_run = staged({ops::fill(DType::kInt32, {}, 9.0)})[0];
  EXPECT_EQ(staged.num_traces(), 1);
  EXPECT_FALSE(tensor_util::AllClose(short_run, long_run));
  // Matches the eager dynamic run.
  Tensor eager = models::DynamicRnn(cell, sequence,
                                    ops::fill(DType::kInt32, {}, 9.0));
  EXPECT_TRUE(tensor_util::AllClose(eager, long_run, 1e-5, 1e-6));
}

TEST(RnnTest, DynamicRnnGradientMatchesUnrolled) {
  // DynamicRnn is differentiable now: the While gradient runs the step
  // function's backward per executed time step, threading the cell-variable
  // and sequence-capture gradients through accumulators. At full length the
  // gradients must match the unrolled host loop's tape gradients.
  models::LSTMCell cell(2, 3, /*seed=*/71);
  Tensor sequence = ops::random_normal({2, 5, 2}, 0, 1, /*seed=*/72);
  std::vector<Variable> vars = cell.variables();

  auto grads_of = [&](const std::function<Tensor()>& forward) {
    GradientTape tape;
    Tensor loss = ops::reduce_sum(forward());
    tape.StopRecording();
    return gradient(tape, loss, vars);
  };
  std::vector<Tensor> want =
      grads_of([&] { return models::UnrolledRnn(cell, sequence); });

  // Eager dynamic loop: per-iteration staged Calls on the tape.
  std::vector<Tensor> eager_grads = grads_of([&] {
    return models::DynamicRnn(cell, sequence,
                              ops::fill(DType::kInt32, {}, 5.0));
  });
  // Fully staged: ONE graph containing the While node; differentiating the
  // enclosing function goes through the While gradient.
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {models::DynamicRnn(cell, sequence, args[0])};
      },
      "grad_dynamic_rnn");
  std::vector<Tensor> staged_grads =
      grads_of([&] { return staged({ops::fill(DType::kInt32, {}, 5.0)})[0]; });

  ASSERT_EQ(want.size(), eager_grads.size());
  ASSERT_EQ(want.size(), staged_grads.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(tensor_util::AllClose(want[i], eager_grads[i], 1e-5, 1e-6))
        << "eager dynamic grad " << i;
    EXPECT_TRUE(tensor_util::AllClose(want[i], staged_grads[i], 1e-5, 1e-6))
        << "staged dynamic grad " << i;
  }
}

TEST(RnnTest, UnrolledRnnTrainable) {
  // Fit the final hidden state toward a target via the unrolled driver.
  models::LSTMCell cell(2, 2, /*seed=*/51);
  Tensor sequence = ops::random_normal({4, 5, 2}, 0, 1, /*seed=*/52);
  Tensor target = ops::fill(DType::kFloat32, {4, 2}, 0.5);
  auto loss_of = [&]() {
    return ops::reduce_mean(
        ops::square(ops::sub(models::UnrolledRnn(cell, sequence), target)));
  };
  float first = loss_of().scalar<float>();
  for (int i = 0; i < 40; ++i) {
    GradientTape tape;
    Tensor loss = loss_of();
    tape.StopRecording();
    std::vector<Variable> vars = cell.variables();
    models::ApplySgd(vars, gradient(tape, loss, vars), 0.5);
  }
  EXPECT_LT(loss_of().scalar<float>(), first * 0.5f);
}

TEST(RnnTest, StagedUnrolledGraphContainsTimeSteps) {
  models::LSTMCell cell(2, 2, /*seed=*/61);
  Tensor sequence = ops::random_normal({1, 4, 2}, 0, 1, /*seed=*/62);
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {models::UnrolledRnn(cell, args[0])};
      },
      "staged_unrolled_rnn");
  auto concrete = staged.GetConcreteFunction({sequence});
  ASSERT_TRUE(concrete.ok());
  int matmuls = 0;
  for (int i = 0; i < (*concrete)->graph().num_nodes(); ++i) {
    if ((*concrete)->graph().node(i).def->name == "MatMul") ++matmuls;
  }
  EXPECT_EQ(matmuls, 4);  // one per unrolled step (paper §4.1)
  EXPECT_TRUE(tensor_util::AllClose(models::UnrolledRnn(cell, sequence),
                                    staged({sequence})[0], 1e-5, 1e-6));
}

}  // namespace
}  // namespace tfe
