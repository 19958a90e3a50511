// Model-level integration: MLP, tiny ResNet-50 variant, L2HMC — each run
// eagerly and staged, mirroring the paper's "same Model class, decorate two
// functions" workflow (§6).
#include <gtest/gtest.h>

#include <cmath>

#include "api/tfe.h"
#include "models/l2hmc.h"
#include "models/mlp.h"
#include "models/resnet.h"

namespace tfe {
namespace {

TEST(MlpTest, ForwardShapes) {
  models::MLP mlp({4, 8, 3}, /*seed=*/1);
  Tensor x = ops::random_normal({5, 4}, 0, 1, /*seed=*/2);
  Tensor logits = mlp(x);
  EXPECT_EQ(logits.shape(), Shape({5, 3}));
  EXPECT_EQ(mlp.variables().size(), 4u);  // 2 layers x (kernel, bias)
}

TEST(MlpTest, EagerTrainingReducesLoss) {
  models::MLP mlp({4, 16, 3}, /*seed=*/3);
  Tensor x = ops::random_normal({32, 4}, 0, 1, /*seed=*/4);
  Tensor labels = ops::cast(
      ops::argmax(ops::random_normal({32, 3}, 0, 1, /*seed=*/5), 1),
      DType::kInt64);
  float first = mlp.Loss(x, labels).scalar<float>();
  for (int i = 0; i < 30; ++i) mlp.TrainStep(x, labels, 0.5);
  float last = mlp.Loss(x, labels).scalar<float>();
  EXPECT_LT(last, first * 0.7f);
}

TEST(MlpTest, StagedTrainingMatchesEagerExactly) {
  // Two identical models (same seeds); one trained eagerly, one through a
  // staged train step. Losses must match to the last bit: both stages share
  // kernels.
  Tensor x = ops::random_normal({16, 4}, 0, 1, /*seed=*/6);
  Tensor labels = ops::constant<int64_t>(
      {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0}, {16});

  models::MLP eager_mlp({4, 8, 3}, /*seed=*/7);
  models::MLP staged_mlp({4, 8, 3}, /*seed=*/7);

  Function staged_step = function(
      [&staged_mlp](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {staged_mlp.TrainStep(args[0], args[1], 0.2)};
      },
      "mlp_train_step");

  for (int i = 0; i < 10; ++i) {
    float eager_loss = eager_mlp.TrainStep(x, labels, 0.2).scalar<float>();
    float staged_loss = staged_step({x, labels})[0].scalar<float>();
    ASSERT_FLOAT_EQ(eager_loss, staged_loss) << "step " << i;
  }
  EXPECT_EQ(staged_step.num_traces(), 1);
  // Weights identical afterwards.
  auto eager_vars = eager_mlp.variables();
  auto staged_vars = staged_mlp.variables();
  ASSERT_EQ(eager_vars.size(), staged_vars.size());
  for (size_t i = 0; i < eager_vars.size(); ++i) {
    EXPECT_TRUE(tensor_util::AllClose(eager_vars[i].value(),
                                      staged_vars[i].value(), 0, 0));
  }
}

models::ResNet50::Config TinyResNetConfig() {
  models::ResNet50::Config config;
  config.num_classes = 4;
  config.blocks_per_stage = {1, 1, 1, 1};
  config.width_divisor = 16;
  config.seed = 11;
  return config;
}

TEST(ResNetTest, TinyVariantForwardAndShapes) {
  models::ResNet50 model(TinyResNetConfig());
  Tensor images = ops::random_normal({2, 32, 32, 3}, 0, 1, /*seed=*/12);
  Tensor logits = model(images, /*training=*/false);
  EXPECT_EQ(logits.shape(), Shape({2, 4}));
  EXPECT_GT(model.variables().size(), 30u);  // full bottleneck structure
  for (float value : tensor_util::ToVector<float>(logits)) {
    EXPECT_TRUE(std::isfinite(value));
  }
}

TEST(ResNetTest, FullTopologyHasFiftyConvLayers) {
  // Real ResNet-50 layout: 1 stem + 3*(3+4+6+3) bottleneck convs + head
  // dense = 50 weight layers; with projection shortcuts, 53 conv filters.
  models::ResNet50::Config config;  // default [3,4,6,3]
  config.width_divisor = 64;        // thin but structurally identical
  config.num_classes = 10;
  models::ResNet50 model(config);
  int conv_filters = 0;
  int bn_scales = 0;
  for (const Variable& v : model.variables()) {
    if (v.shape().rank() == 4) ++conv_filters;
    if (v.name().find("/scale") != std::string::npos) ++bn_scales;
  }
  EXPECT_EQ(conv_filters, 1 + 48 + 4);  // stem + 16 blocks x3 + 4 shortcuts
  EXPECT_EQ(bn_scales, 53);
}

TEST(ResNetTest, TrainStepDecreasesLossEagerAndStaged) {
  Tensor images = ops::random_normal({4, 16, 16, 3}, 0, 1, /*seed=*/13);
  Tensor labels = ops::constant<int64_t>({0, 1, 2, 3}, {4});

  models::ResNet50 model(TinyResNetConfig());
  float first = model.Loss(images, labels, true).scalar<float>();
  for (int i = 0; i < 3; ++i) model.TrainStep(images, labels, 0.05);
  float eager_loss = model.Loss(images, labels, true).scalar<float>();
  EXPECT_LT(eager_loss, first);

  // Staged: decorate the train step (the paper's two-decorator workflow).
  Function staged_step = function(
      [&model](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {model.TrainStep(args[0], args[1], 0.05)};
      },
      "resnet_train_step");
  float staged_first = staged_step({images, labels})[0].scalar<float>();
  float staged_second = staged_step({images, labels})[0].scalar<float>();
  EXPECT_LT(staged_second, staged_first);
  EXPECT_EQ(staged_step.num_traces(), 1);
}

TEST(L2hmcTest, TransitionProducesValidProposals) {
  models::L2hmcDynamics::Config config;
  config.leapfrog_steps = 3;
  models::L2hmcDynamics dynamics(config);
  Tensor x = ops::random_normal({10, 2}, 0, 1, /*seed=*/14);
  auto proposal = dynamics.Transition(x);
  EXPECT_EQ(proposal.x_out.shape(), Shape({10, 2}));
  EXPECT_EQ(proposal.accept_prob.shape(), Shape({10}));
  for (float p : tensor_util::ToVector<float>(proposal.accept_prob)) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
  for (float value : tensor_util::ToVector<float>(proposal.x_out)) {
    EXPECT_TRUE(std::isfinite(value));
  }
}

TEST(L2hmcTest, LossIsFiniteAndTrainStepRuns) {
  models::L2hmcDynamics::Config config;
  config.leapfrog_steps = 2;
  models::L2hmcDynamics dynamics(config);
  EXPECT_EQ(dynamics.variables().size(), 24u);  // 2 nets x 6 layers x 2
  Tensor x = ops::random_normal({8, 2}, 0, 1, /*seed=*/15);
  float loss = dynamics.TrainStep(x, 1e-3).scalar<float>();
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(L2hmcTest, StagedSamplerMatchesEagerStructure) {
  // The Figure 4 configuration (10 leapfrog steps), staged as one function.
  // A small step size keeps the untrained integrator stable so acceptance
  // probabilities stay strictly inside (0, 1) — with the default step the
  // integrator can diverge and the acceptance underflows to exactly zero,
  // making consecutive runs legitimately identical (all rejections).
  models::L2hmcDynamics::Config stable_config;
  stable_config.step_size = 0.01;
  models::L2hmcDynamics dynamics(stable_config);
  Function staged = function(
      [&dynamics](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        auto proposal = dynamics.Transition(args[0]);
        return {proposal.x_out, proposal.accept_prob};
      },
      "l2hmc_transition");
  Tensor x = ops::random_normal({10, 2}, 0, 1, /*seed=*/16);
  auto outs = staged({x});
  EXPECT_EQ(outs[0].shape(), Shape({10, 2}));
  for (float p : tensor_util::ToVector<float>(outs[1])) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
  // Re-invocation reuses the trace and produces fresh randomness. Depending
  // on the RNG state an untrained sampler may accept everything (equal
  // accept probs of 1.0) or reject everything (x_out == x0 both times), but
  // never both: fresh momenta always perturb one of the two outputs.
  auto outs2 = staged({x});
  EXPECT_EQ(staged.num_traces(), 1);
  EXPECT_FALSE(tensor_util::AllClose(outs[0], outs2[0]) &&
               tensor_util::AllClose(outs[1], outs2[1]));
}

TEST(L2hmcTest, StagedTrainingReducesLossOnAverage) {
  // Loss improvement over a short window is a statistical property of the
  // momenta stream; pin the context (and its RNG stream counter) so the
  // test sees the same stream whether it runs alone or after the full
  // suite in one process.
  EagerContext::ResetGlobal({});
  models::L2hmcDynamics::Config config;
  config.leapfrog_steps = 2;
  models::L2hmcDynamics dynamics(config);
  Function staged_step = function(
      [&dynamics](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {dynamics.TrainStep(args[0], 5e-3)};
      },
      "l2hmc_train");
  Tensor x = ops::random_normal({16, 2}, 0, 2, /*seed=*/17);
  float early = 0, late = 0;
  for (int i = 0; i < 10; ++i) {
    early += staged_step({x})[0].scalar<float>();
  }
  for (int i = 0; i < 30; ++i) staged_step({x});
  for (int i = 0; i < 10; ++i) {
    late += staged_step({x})[0].scalar<float>();
  }
  EXPECT_LT(late, early);  // ESJD improves
  EXPECT_EQ(staged_step.num_traces(), 1);
}

TEST(L2hmcTest, StagedLoopTransitionBitwiseMatchesUnrolled) {
  // The staged While body is the same LeapfrogStep the host loop runs, so
  // with deterministic sample draws the two integrators must agree
  // BITWISE, not just approximately.
  models::L2hmcDynamics::Config config;
  config.leapfrog_steps = 4;
  config.step_size = 0.01;
  config.sample_seed = 91;
  models::L2hmcDynamics unrolled(config);
  config.staged_loop = true;
  models::L2hmcDynamics staged(config);  // same seed -> identical weights

  Tensor x = ops::random_normal({6, 2}, 0, 1, /*seed=*/18);
  auto a = unrolled.Transition(x);
  auto b = staged.Transition(x);
  std::vector<float> ax = tensor_util::ToVector<float>(a.x_out);
  std::vector<float> bx = tensor_util::ToVector<float>(b.x_out);
  ASSERT_EQ(ax.size(), bx.size());
  for (size_t i = 0; i < ax.size(); ++i) EXPECT_EQ(ax[i], bx[i]) << i;
  std::vector<float> ap = tensor_util::ToVector<float>(a.accept_prob);
  std::vector<float> bp = tensor_util::ToVector<float>(b.accept_prob);
  ASSERT_EQ(ap.size(), bp.size());
  for (size_t i = 0; i < ap.size(); ++i) EXPECT_EQ(ap[i], bp[i]) << i;
}

TEST(L2hmcTest, StagedLoopTrainStepOneGraphMatchesUnrolled) {
  // With staged_loop the whole training step — forward While, the While
  // gradient's per-iteration backward over its forward stack, and the SGD
  // updates — stages into ONE graph function, and both the loss and the
  // updated weights must match the unrolled eager step bitwise.
  models::L2hmcDynamics::Config config;
  config.leapfrog_steps = 3;
  config.step_size = 0.01;
  config.sample_seed = 92;
  models::L2hmcDynamics unrolled(config);
  config.staged_loop = true;
  models::L2hmcDynamics staged(config);

  Function staged_step = function(
      [&staged](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {staged.TrainStep(args[0], 1e-3)};
      },
      "l2hmc_staged_loop_train");

  Tensor x = ops::random_normal({8, 2}, 0, 1, /*seed=*/19);
  float eager_loss = unrolled.TrainStep(x, 1e-3).scalar<float>();
  float staged_loss = staged_step({x})[0].scalar<float>();
  EXPECT_EQ(eager_loss, staged_loss);
  EXPECT_EQ(staged_step.num_traces(), 1);

  std::vector<Variable> uvars = unrolled.variables();
  std::vector<Variable> svars = staged.variables();
  ASSERT_EQ(uvars.size(), svars.size());
  for (size_t i = 0; i < uvars.size(); ++i) {
    std::vector<float> uv = tensor_util::ToVector<float>(uvars[i].value());
    std::vector<float> sv = tensor_util::ToVector<float>(svars[i].value());
    ASSERT_EQ(uv.size(), sv.size());
    for (size_t j = 0; j < uv.size(); ++j) {
      EXPECT_EQ(uv[j], sv[j]) << "variable " << i << " element " << j;
    }
  }
}

}  // namespace
}  // namespace tfe
