// Cross-cutting integration tests: whole training loops across devices and
// stages, checkpoint-resume equivalence, and error paths.
#include <gtest/gtest.h>

#include <filesystem>

#include "api/tfe.h"
#include "data/dataset.h"
#include "models/mlp.h"
#include "models/optimizers.h"
#include "staging/control_flow.h"

namespace tfe {
namespace {

TEST(IntegrationTest, StagedTrainingOnSimGpuMatchesCpu) {
  // The simulated GPU executes real kernels by default, so a staged train
  // step placed on it must produce bit-identical numerics to the CPU.
  Tensor x = ops::random_normal({8, 4}, 0, 1, /*seed=*/71);
  Tensor labels = ops::constant<int64_t>({0, 1, 2, 0, 1, 2, 0, 1}, {8});

  auto run_training = [&](const std::string& device) {
    models::MLP mlp({4, 8, 3}, /*seed=*/72);
    Function step = function(
        [&mlp](const std::vector<Tensor>& args) -> std::vector<Tensor> {
          return {mlp.TrainStep(args[0], args[1], 0.1)};
        },
        "device_train_step");
    std::vector<float> losses;
    DeviceScope scope(device);
    for (int i = 0; i < 5; ++i) {
      Tensor loss = step({x, labels})[0];
      losses.push_back(ops::cast(loss, DType::kFloat32).scalar<float>());
    }
    return losses;
  };
  std::vector<float> cpu_losses = run_training("/cpu:0");
  std::vector<float> gpu_losses = run_training("/gpu:0");
  EXPECT_EQ(cpu_losses, gpu_losses);
}

TEST(IntegrationTest, ExplicitPlacementInsideFunctionOverridesCallDevice) {
  Function mixed = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor on_cpu;
        {
          DeviceScope cpu("/cpu:0");
          on_cpu = ops::add(args[0], args[0]);
        }
        return {ops::mul(on_cpu, on_cpu)};
      },
      "mixed_devices");
  DeviceScope gpu("/gpu:0");
  Tensor out = mixed({ops::scalar<float>(3.0f)})[0];
  EXPECT_FLOAT_EQ(out.scalar<float>(), 36.0f);
  // The trace pins the inner op to the CPU.
  auto concrete = mixed.GetConcreteFunction({ops::scalar<float>(3.0f)});
  ASSERT_TRUE(concrete.ok());
  bool found_pinned = false;
  for (int i = 0; i < (*concrete)->graph().num_nodes(); ++i) {
    const Node& node = (*concrete)->graph().node(i);
    if (node.def->name == "Add" && !node.requested_device.empty()) {
      found_pinned = true;
      auto parts = ParseDeviceName(node.requested_device);
      ASSERT_TRUE(parts.ok());
      EXPECT_EQ(parts->kind, DeviceKind::kCpu);
    }
  }
  EXPECT_TRUE(found_pinned);
}

TEST(IntegrationTest, CheckpointResumeContinuesIdentically) {
  // Train 6 steps straight through vs. 3 steps + checkpoint + restore into
  // fresh objects + 3 more steps: identical final weights. Covers model,
  // optimizer slots, and iterator position together.
  std::string dir = (std::filesystem::temp_directory_path() /
                     "tfe_resume_ckpt").string();
  std::filesystem::remove_all(dir);

  Tensor all_x = ops::random_normal({24, 4}, 0, 1, /*seed=*/81);
  Tensor all_y = ops::cast(
      ops::argmax(ops::random_normal({24, 3}, 0, 1, /*seed=*/82), 1),
      DType::kInt64);

  auto make_pipeline = [&]() {
    return data::Dataset::FromTensors({all_x, all_y})
        .Shuffle(9)
        .Batch(8)
        .Repeat(-1);
  };
  auto train_step = [](models::MLP& mlp, models::SGD& sgd,
                       data::Iterator& it) {
    std::vector<Tensor> batch = it.Next();
    GradientTape tape;
    Tensor loss = mlp.Loss(batch[0], batch[1]);
    tape.StopRecording();
    std::vector<Variable> vars = mlp.variables();
    sgd.ApplyGradients(vars, gradient(tape, loss, vars));
  };

  // Straight-through reference.
  models::MLP reference({4, 8, 3}, /*seed=*/83);
  models::SGD reference_sgd(0.1, 0.9);
  data::Iterator reference_it(make_pipeline());
  for (int i = 0; i < 6; ++i) train_step(reference, reference_sgd, reference_it);

  // Interrupted run.
  {
    models::MLP mlp({4, 8, 3}, /*seed=*/83);
    models::SGD sgd(0.1, 0.9);
    data::Iterator it(make_pipeline());
    for (int i = 0; i < 3; ++i) train_step(mlp, sgd, it);
    Checkpoint checkpoint;
    checkpoint.TrackChild("model", &mlp);
    checkpoint.TrackChild("optimizer", &sgd);
    checkpoint.TrackChild("iterator", &it);
    ASSERT_TRUE(checkpoint.Save(dir).ok());
  }
  {
    models::MLP mlp({4, 8, 3}, /*seed=*/999);  // different init
    models::SGD sgd(0.1, 0.9);
    data::Iterator it(make_pipeline());
    // Create the momentum slots so the checkpoint has matching edges.
    train_step(mlp, sgd, it);
    Checkpoint checkpoint;
    checkpoint.TrackChild("model", &mlp);
    checkpoint.TrackChild("optimizer", &sgd);
    checkpoint.TrackChild("iterator", &it);
    ASSERT_TRUE(checkpoint.Restore(dir).ok());
    for (int i = 0; i < 3; ++i) train_step(mlp, sgd, it);

    auto reference_vars = reference.variables();
    auto resumed_vars = mlp.variables();
    ASSERT_EQ(reference_vars.size(), resumed_vars.size());
    for (size_t i = 0; i < reference_vars.size(); ++i) {
      EXPECT_TRUE(tensor_util::AllClose(reference_vars[i].value(),
                                        resumed_vars[i].value(), 0, 0))
          << "variable " << i;
    }
  }
}

TEST(IntegrationTest, EpochLoopDrivenByOutOfRange) {
  data::Iterator it(
      data::Dataset::FromTensors(
          {ops::random_normal({10, 2}, 0, 1, /*seed=*/91)})
          .Batch(3));
  int batches = 0;
  while (true) {
    auto batch = it.TryNext();
    if (!batch.ok()) {
      EXPECT_EQ(batch.status().code(), ErrorCode::kOutOfRange);
      break;
    }
    ++batches;
  }
  EXPECT_EQ(batches, 3);  // 10/3, remainder dropped
}

TEST(IntegrationTest, NonDifferentiableOpStopsGradient) {
  Tensor x = ops::constant<float>({1, 5, 2}, {1, 3});
  GradientTape tape;
  tape.watch(x);
  Tensor winners = ops::cast(ops::argmax(x, 1), DType::kFloat32);
  Tensor y = ops::reduce_sum(ops::mul(winners, winners));
  tape.StopRecording();
  auto grads = tape.gradient(y, {x});
  ASSERT_TRUE(grads.ok());
  EXPECT_FALSE((*grads)[0].defined());  // argmax blocks the flow
}

TEST(IntegrationTest, UninitializedVariableRejected) {
  // Reading a variable whose storage was emptied is a runtime error; the
  // handle itself stays valid.
  Variable v(ops::scalar<float>(1.0f));
  EXPECT_NO_THROW(v.value());
}

TEST(IntegrationTest, WrongArityFunctionCallFails) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args.at(0), args.at(1))};
      },
      "binary_fn");
  f.SetInputSignature({{DType::kFloat32, Shape()},
                       {DType::kFloat32, Shape()}});
  EXPECT_THROW(f({ops::scalar<float>(1.0f)}), RuntimeError);
  EXPECT_FLOAT_EQ(
      f({ops::scalar<float>(1.0f), ops::scalar<float>(2.0f)})[0]
          .scalar<float>(),
      3.0f);
}

TEST(IntegrationTest, GradientOfWhileMatchesClosedForm) {
  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], ops::fill(DType::kFloat32, {}, 8.0))};
      },
      "grad_while_cond");
  Function twice = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::mul(vars[0], ops::fill(DType::kFloat32, {}, 2.0))};
      },
      "grad_while_body");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return ops::while_loop(below, twice, {args[0]});
      },
      "grad_while");
  Tensor x = ops::scalar<float>(1.0f);
  GradientTape tape;
  tape.watch(x);
  Tensor y = staged({x})[0];
  tape.StopRecording();
  EXPECT_FLOAT_EQ(y.scalar<float>(), 8.0f);
  // y = x * 2^3 (three doublings run before x < 8 fails), so dy/dx = 8:
  // the While gradient runs the body backward once per iteration.
  auto grads = tape.gradient(y, {x});
  ASSERT_TRUE(grads.ok()) << grads.status().message();
  EXPECT_FLOAT_EQ((*grads)[0].scalar<float>(), 8.0f);
}

TEST(IntegrationTest, StatsTrackExecutionModes) {
  EagerContext* ctx = EagerContext::Global();
  uint64_t eager_before = ctx->stats().eager_ops.load();
  uint64_t nodes_before = ctx->stats().executor_nodes.load();
  uint64_t calls_before = ctx->stats().function_calls.load();

  Tensor x = ops::scalar<float>(1.0f);
  ops::add(x, x);
  EXPECT_GT(ctx->stats().eager_ops.load(), eager_before);

  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], args[0])};
      },
      "stats_probe");
  f({x});
  EXPECT_GT(ctx->stats().executor_nodes.load(), nodes_before);
  EXPECT_GT(ctx->stats().function_calls.load(), calls_before);
}

}  // namespace
}  // namespace tfe
