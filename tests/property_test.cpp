// Randomized property tests:
//  * eager and staged execution agree on random op DAGs (the core
//    multi-stage invariant),
//  * shape inference agrees with kernel-produced shapes,
//  * trace-cache keying laws,
//  * gradients of random DAGs match finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "api/tfe.h"
#include "graph/serialization.h"
#include "support/random.h"

namespace tfe {
namespace {

// A deterministic random program: a chain/DAG of elementwise + matmul ops
// over [4,4] float tensors, parameterized by a seed.
std::vector<Tensor> RandomProgram(uint64_t seed,
                                  const std::vector<Tensor>& args) {
  random::Philox gen(seed, 0);
  std::vector<Tensor> values = args;
  auto pick = [&](size_t n) { return gen.NextUint64() % n; };
  for (int step = 0; step < 12; ++step) {
    const Tensor& a = values[pick(values.size())];
    const Tensor& b = values[pick(values.size())];
    Tensor next;
    switch (pick(7)) {
      case 0:
        next = ops::add(a, b);
        break;
      case 1:
        next = ops::sub(a, b);
        break;
      case 2:
        next = ops::mul(a, b);
        break;
      case 3:
        next = ops::matmul(a, b);
        break;
      case 4:
        next = ops::tanh(a);
        break;
      case 5:
        next = ops::relu(a);
        break;
      default:
        next = ops::mul(ops::sigmoid(a), b);
        break;
    }
    values.push_back(next);
  }
  return {ops::reduce_sum(values.back()),
          ops::reduce_mean(values[values.size() / 2])};
}

class RandomProgramEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramEquivalence, EagerAndStagedAgree) {
  uint64_t seed = GetParam();
  Tensor x = ops::random_normal({4, 4}, 0, 0.5, /*seed=*/seed + 1);
  Tensor y = ops::random_normal({4, 4}, 0, 0.5, /*seed=*/seed + 2);

  std::vector<Tensor> eager = RandomProgram(seed, {x, y});
  Function staged = function(
      [seed](const std::vector<Tensor>& args) {
        return RandomProgram(seed, args);
      },
      "random_program");
  std::vector<Tensor> graph = staged({x, y});

  ASSERT_EQ(eager.size(), graph.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    EXPECT_TRUE(tensor_util::AllClose(eager[i], graph[i], 1e-5, 1e-6))
        << "output " << i << " of seed " << seed;
  }
}

TEST_P(RandomProgramEquivalence, GradientsAgreeAcrossStages) {
  uint64_t seed = GetParam();
  Tensor x = ops::random_normal({4, 4}, 0, 0.3, /*seed=*/seed + 3);
  Tensor y = ops::random_normal({4, 4}, 0, 0.3, /*seed=*/seed + 4);

  GradientTape eager_tape(/*persistent=*/false);
  eager_tape.watch(x);
  eager_tape.watch(y);
  Tensor eager_out = RandomProgram(seed, {x, y})[0];
  eager_tape.StopRecording();
  auto eager_grads = std::move(eager_tape.gradient(eager_out, {x, y})).value();

  Function staged = function(
      [seed](const std::vector<Tensor>& args) {
        return RandomProgram(seed, args);
      },
      "random_program_grad");
  GradientTape staged_tape;
  staged_tape.watch(x);
  staged_tape.watch(y);
  Tensor staged_out = staged({x, y})[0];
  staged_tape.StopRecording();
  auto staged_grads =
      std::move(staged_tape.gradient(staged_out, {x, y})).value();

  for (int i = 0; i < 2; ++i) {
    if (!eager_grads[i].defined()) {
      // "No dependence" may surface as an undefined gradient (eager tape
      // pruning) or as an explicit zero tensor (staged backward); both mean
      // zero.
      if (staged_grads[i].defined()) {
        EXPECT_TRUE(tensor_util::AllClose(
            staged_grads[i], ops::zeros_like(staged_grads[i])));
      }
      continue;
    }
    ASSERT_TRUE(staged_grads[i].defined());
    EXPECT_TRUE(
        tensor_util::AllClose(eager_grads[i], staged_grads[i], 1e-4, 1e-5))
        << "grad " << i << " of seed " << seed;
  }
}

TEST_P(RandomProgramEquivalence, AsyncAgreesWithSync) {
  uint64_t seed = GetParam();
  Tensor x = ops::random_normal({4, 4}, 0, 0.5, /*seed=*/seed + 1);
  Tensor y = ops::random_normal({4, 4}, 0, 0.5, /*seed=*/seed + 2);

  std::vector<Tensor> sync_out = RandomProgram(seed, {x, y});

  EagerContext::Global()->set_async(true);
  std::vector<Tensor> async_out = RandomProgram(seed, {x, y});
  Status drained = EagerContext::Global()->Sync();
  EagerContext::Global()->set_async(false);
  ASSERT_TRUE(drained.ok()) << drained.message();

  ASSERT_EQ(sync_out.size(), async_out.size());
  for (size_t i = 0; i < sync_out.size(); ++i) {
    EXPECT_TRUE(tensor_util::AllClose(sync_out[i], async_out[i], 0, 0))
        << "output " << i << " of seed " << seed;
  }
}

TEST_P(RandomProgramEquivalence, AsyncHandleLifetimesDrainCleanly) {
  // Random DAGs where most intermediates are dropped before they ever
  // materialize: queue nodes must keep the handles alive until their ops
  // retire, and nothing may deadlock or leak (the tier-1 script re-runs
  // this under ASan/TSan via TFE_SANITIZE).
  uint64_t seed = GetParam();
  random::Philox gen(seed * 31 + 7, 1);
  EagerContext::Global()->set_async(true);
  Tensor survivor;
  {
    std::vector<Tensor> live = {
        ops::random_normal({4, 4}, 0, 0.5, /*seed=*/seed + 1),
        ops::random_normal({4, 4}, 0, 0.5, /*seed=*/seed + 2)};
    std::vector<Tensor> program = RandomProgram(seed, live);
    for (int round = 0; round < 8; ++round) {
      live.push_back(ops::mul(live[gen.NextUint64() % live.size()],
                              live[gen.NextUint64() % live.size()]));
      // Drop a random tensor — possibly one whose op is still queued.
      live.erase(live.begin() + gen.NextUint64() % live.size());
    }
    survivor = live[gen.NextUint64() % live.size()];
    // `program` and the rest of `live` die here, resolved or not.
  }
  EXPECT_TRUE(survivor.Materialize().ok());
  Status drained = EagerContext::Global()->Sync();
  EagerContext::Global()->set_async(false);
  EXPECT_TRUE(drained.ok()) << drained.message();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

// Shape inference must agree with what kernels actually produce.
struct ShapeAgreementCase {
  std::string name;
  std::function<Tensor()> run;
};

// Print by name so the listed test names do not carry heap addresses.
void PrintTo(const ShapeAgreementCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class ShapeInferenceAgreement
    : public ::testing::TestWithParam<ShapeAgreementCase> {};

TEST_P(ShapeInferenceAgreement, TracedShapeEqualsKernelShape) {
  // Run eagerly for the kernel shape; trace for the inferred shape.
  Tensor eager = GetParam().run();
  Function staged = function(
      [&](const std::vector<Tensor>&) -> std::vector<Tensor> {
        return {GetParam().run()};
      },
      "shape_probe");
  auto concrete = staged.GetConcreteFunction({});
  ASSERT_TRUE(concrete.ok());
  TypeAndShape inferred = (*concrete)->output_type(0);
  EXPECT_EQ(inferred.dtype, eager.dtype()) << GetParam().name;
  ASSERT_TRUE(inferred.shape.IsCompatibleWith(eager.shape()))
      << GetParam().name << ": inferred " << inferred.shape.ToString()
      << " vs kernel " << eager.shape().ToString();
}

Tensor Probe(int64_t seed, const Shape& shape) {
  return ops::random_normal(shape, 0, 1, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ShapeInferenceAgreement,
    ::testing::Values(
        ShapeAgreementCase{"conv_same",
                           [] {
                             return ops::conv2d(Probe(1, {2, 9, 9, 3}),
                                                Probe(2, {3, 3, 3, 8}),
                                                {2, 2}, "SAME");
                           }},
        ShapeAgreementCase{"conv_valid",
                           [] {
                             return ops::conv2d(Probe(3, {1, 8, 8, 2}),
                                                Probe(4, {3, 3, 2, 4}),
                                                {1, 1}, "VALID");
                           }},
        ShapeAgreementCase{"maxpool",
                           [] {
                             return ops::max_pool(Probe(5, {2, 7, 7, 3}),
                                                  {3, 3}, {2, 2}, "SAME");
                           }},
        ShapeAgreementCase{"avgpool",
                           [] {
                             return ops::avg_pool(Probe(6, {2, 8, 8, 3}),
                                                  {2, 2}, {2, 2}, "VALID");
                           }},
        ShapeAgreementCase{"matmul_t",
                           [] {
                             return ops::matmul(Probe(7, {3, 5}),
                                                Probe(8, {7, 5}), false,
                                                true);
                           }},
        ShapeAgreementCase{"reduce_keepdims",
                           [] {
                             return ops::reduce_sum(Probe(9, {2, 3, 4}),
                                                    {0, 2}, true);
                           }},
        ShapeAgreementCase{"concat_axis1",
                           [] {
                             return ops::concat({Probe(10, {2, 3}),
                                                 Probe(11, {2, 5})},
                                                1);
                           }},
        ShapeAgreementCase{"pad",
                           [] {
                             return ops::pad(Probe(12, {2, 2}),
                                             {1, 0, 2, 3});
                           }},
        ShapeAgreementCase{"tile",
                           [] {
                             return ops::tile(Probe(13, {2, 3}), {2, 4});
                           }},
        ShapeAgreementCase{"batchnorm",
                           [] {
                             auto result = ops::fused_batch_norm(
                                 Probe(14, {2, 4, 4, 3}),
                                 ops::ones(DType::kFloat32, {3}),
                                 ops::zeros(DType::kFloat32, {3}),
                                 ops::zeros(DType::kFloat32, {3}),
                                 ops::ones(DType::kFloat32, {3}), true);
                             return result.y;
                           }},
        ShapeAgreementCase{"argmax_then_cast",
                           [] {
                             return ops::cast(
                                 ops::argmax(Probe(15, {4, 6}), 1),
                                 DType::kFloat32);
                           }}),
    [](const ::testing::TestParamInfo<ShapeAgreementCase>& info) {
      return info.param.name;
    });

TEST_P(RandomProgramEquivalence, SerializeRoundTripPreservesSemantics) {
  // Serialization is semantics-preserving on arbitrary traced programs.
  uint64_t seed = GetParam();
  Tensor x = ops::random_normal({4, 4}, 0, 0.4, /*seed=*/seed + 5);
  Tensor y = ops::random_normal({4, 4}, 0, 0.4, /*seed=*/seed + 6);
  Function staged = function(
      [seed](const std::vector<Tensor>& args) {
        return RandomProgram(seed, args);
      },
      "random_program_serialize");
  std::vector<Tensor> expected = staged({x, y});

  auto concrete = staged.GetConcreteFunction({x, y});
  ASSERT_TRUE(concrete.ok());
  auto serialized = SerializeFunctionBundle(
      **concrete, EagerContext::Global()->functions());
  ASSERT_TRUE(serialized.ok());
  auto bundle = DeserializeFunctionBundle(*serialized);
  ASSERT_TRUE(bundle.ok());

  EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  EagerContext fresh(options);
  for (const auto& fn : *bundle) {
    ASSERT_TRUE(fresh.functions().Register(fn).ok());
  }
  std::vector<Tensor> inputs = {x, y};
  for (const Capture& capture : bundle->front()->captures()) {
    inputs.push_back(capture.tensor);
  }
  AttrMap attrs;
  attrs["function"] = AttrValue(bundle->front()->name());
  auto outputs = fresh.RunPrimitive("Call", inputs, attrs, "");
  ASSERT_TRUE(outputs.ok());
  ASSERT_EQ(outputs->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(tensor_util::AllClose(expected[i], (*outputs)[i], 0, 0))
        << "seed " << seed << " output " << i;
  }
}

TEST(TraceCacheLaws, SameSignatureNeverRetraces) {
  random::Philox gen(99, 0);
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::reduce_sum(args[0])};
      },
      "cache_law");
  std::set<std::string> shapes_seen;
  int expected_traces = 0;
  for (int i = 0; i < 40; ++i) {
    int64_t rows = 1 + gen.NextUint64() % 4;
    int64_t cols = 1 + gen.NextUint64() % 4;
    Shape shape({rows, cols});
    if (shapes_seen.insert(shape.ToString()).second) ++expected_traces;
    f({ops::random_normal(shape, 0, 1, /*seed=*/static_cast<int64_t>(i) + 1)});
    ASSERT_EQ(f.num_traces(), expected_traces)
        << "iteration " << i << " shape " << shape.ToString();
  }
}

TEST(BroadcastLaws, AddCommutes) {
  random::Philox gen(7, 7);
  for (int trial = 0; trial < 20; ++trial) {
    auto random_dims = [&](int max_rank) {
      std::vector<int64_t> dims(1 + gen.NextUint64() % max_rank);
      for (auto& d : dims) d = 1 + gen.NextUint64() % 3;
      return dims;
    };
    Tensor a = ops::random_normal(Shape(random_dims(3)), 0, 1,
                                  /*seed=*/trial * 2 + 1);
    std::vector<int64_t> b_dims = a.shape().dims();
    // Make some dims 1 so broadcasting kicks in.
    for (auto& d : b_dims) {
      if (gen.NextUint64() % 2 == 0) d = 1;
    }
    Tensor b = ops::random_normal(Shape(b_dims), 0, 1,
                                  /*seed=*/trial * 2 + 2);
    EXPECT_TRUE(tensor_util::AllClose(ops::add(a, b), ops::add(b, a)));
    EXPECT_TRUE(tensor_util::AllClose(ops::mul(a, b), ops::mul(b, a)));
  }
}

TEST(ExecutorInvariants, BufferSharingOpsDontCorruptUnderParallelRuns) {
  // Reshape/Identity share buffers; running a graph that fans a reshaped
  // tensor into many parallel consumers must not corrupt values.
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor flat = ops::reshape(args[0], {16});
        std::vector<Tensor> branches;
        for (int i = 0; i < 8; ++i) {
          branches.push_back(ops::reduce_sum(ops::mul(flat, flat)));
        }
        Tensor total = branches[0];
        for (size_t i = 1; i < branches.size(); ++i) {
          total = ops::add(total, branches[i]);
        }
        return {total};
      },
      "buffer_sharing");
  Tensor x = ops::random_normal({4, 4}, 0, 1, /*seed=*/31);
  float expected =
      8.0f * ops::reduce_sum(ops::mul(x, x)).scalar<float>();
  for (int i = 0; i < 20; ++i) {
    EXPECT_NEAR(f({x})[0].scalar<float>(), expected, 1e-3);
  }
}

}  // namespace
}  // namespace tfe
