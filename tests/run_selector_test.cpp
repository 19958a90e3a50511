// The fused-run selector both fusion frontends share (kernels/run_selector.h):
// its policy rule by rule against a scripted candidate stream, and the
// contract it exists for — the op-queue drain and the static graph pass form
// the same runs from the same op sequence, with bitwise-equal values.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "api/tfe.h"
#include "kernels/program_cache.h"
#include "kernels/run_selector.h"
#include "ops/op_registry.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "support/random.h"
#include "tensor/tensor_handle.h"

namespace tfe {
namespace {

using kernels::FusedRunCandidate;
using kernels::FusedRunInput;
using kernels::FusedRunSelection;
using kernels::SelectFusedRun;

// ---- The policy, against a scripted stream ---------------------------------

// One scripted input: a scan position's value, or an external operand.
struct ScriptInput {
  int producer = -1;
  int64_t key = 0;
  Shape shape;
  bool usable = true;
};

ScriptInput At(int pos) { return {pos, 0, {}, true}; }
ScriptInput Ext(int64_t key, Shape shape) {
  return {-1, key, std::move(shape), true};
}

struct ScriptNode {
  const char* op;
  Shape shape;
  std::vector<ScriptInput> inputs;
  AttrMap attrs = {};
  bool escapes = false;  // read outside any run
};

// A stream of float32 candidates classified by the shared membership rules,
// counting what the selector asked for.
class ScriptSource final : public kernels::FusedRunSource {
 public:
  explicit ScriptSource(std::vector<ScriptNode> nodes)
      : nodes_(std::move(nodes)) {}

  bool Candidate(int pos, FusedRunCandidate* out) override {
    if (pos >= static_cast<int>(nodes_.size())) return false;
    last_position = pos;
    const ScriptNode& node = nodes_[pos];
    out->id = pos;
    out->op = *OpRegistry::Global()->LookUp(node.op);
    out->attrs = &node.attrs;
    out->num_inputs = static_cast<int>(node.inputs.size());
    out->dtype = DType::kFloat32;
    out->shape = &node.shape;
    if (kernels::ClassifyFusedMember(*out->op, node.attrs, node.inputs.size(),
                                     DType::kFloat32, node.shape)) {
      out->cls = &out->op->fused;
    }
    return true;
  }

  FusedRunInput Input(int pos, int i) override {
    ++inputs_asked;
    const ScriptInput& script = nodes_[pos].inputs[i];
    FusedRunInput in;
    in.producer = script.producer;
    in.key = script.key;
    in.dtype = DType::kFloat32;
    in.shape = &script.shape;
    in.usable = script.usable;
    return in;
  }

  bool ReadOutside(const std::vector<int>& members, size_t k) override {
    return nodes_[members[k]].escapes;
  }

  int last_position = -1;
  int inputs_asked = 0;

 private:
  std::vector<ScriptNode> nodes_;
};

AttrMap Axes(std::vector<int64_t> axes) {
  return {{"axis", AttrValue(std::move(axes))}};
}

const Shape kM{6, 8};
const Shape kScalar{};

TEST(FusionSelectorTest, AnchorIsANonReduceMemberWithUsableOperands) {
  kernels::FusedProgramCache cache;
  // A hole or a reduction cannot anchor: nothing past the front is asked.
  for (ScriptNode front : {ScriptNode{"MatMul", kM, {Ext(1, kM), Ext(2, kM)}},
                           ScriptNode{"Sum", {6}, {Ext(1, kM)}, Axes({1})}}) {
    ScriptSource source({front, {"Relu", kM, {Ext(1, kM)}}});
    EXPECT_TRUE(SelectFusedRun(source, cache).members.empty()) << front.op;
    EXPECT_EQ(source.last_position, 0) << front.op;
    EXPECT_EQ(source.inputs_asked, 0) << front.op;
  }
  // An anchor operand that is not usable (pending, poisoned, elsewhere).
  ScriptInput pending = Ext(1, kM);
  pending.usable = false;
  ScriptSource unusable({{"Neg", kM, {pending}}, {"Relu", kM, {At(0)}}});
  EXPECT_TRUE(SelectFusedRun(unusable, cache).members.empty());
  EXPECT_EQ(unusable.last_position, 0);

  ScriptSource ok({{"Neg", kM, {Ext(1, kM)}}, {"Relu", kM, {At(0)}}});
  EXPECT_EQ(SelectFusedRun(ok, cache).members, (std::vector<int>{0, 1}));
}

TEST(FusionSelectorTest, StepsOverHolesAndNonFittingReductions) {
  kernels::FusedProgramCache cache;
  ScriptSource source({
      {"Mul", kM, {Ext(1, kM), Ext(2, kScalar)}},  // 0: anchor
      {"MatMul", kM, {Ext(1, kM), Ext(1, kM)}},    // 1: hole
      {"Add", kM, {At(0), Ext(1, kM)}},            // 2
      {"Sum", {8}, {At(2)}, Axes({0})},            // 3: leading axis: a hole
      {"Add", kM, {At(2), At(1)}},                 // 4: reads a hole
      {"Relu", {3}, {Ext(3, {3})}},                // 5: another count
      {"Relu", kM, {At(2)}},                       // 6
      {"Sum", {6}, {At(6)}, Axes({1})},            // 7: the epilogue
      {"Neg", kM, {At(6)}},                        // 8: behind the epilogue
  });
  const FusedRunSelection selection = SelectFusedRun(source, cache);
  EXPECT_EQ(selection.members, (std::vector<int>{0, 2, 6, 7}));
  EXPECT_TRUE(selection.program->run.has_reduce);
  EXPECT_EQ(source.last_position, 7) << "the epilogue closes the scan";
}

TEST(FusionSelectorTest, ScanStopsAfterMaxSkipsHoles) {
  kernels::FusedProgramCache cache;
  for (size_t holes : {kernels::kMaxFusedRunSkips - 1,
                       kernels::kMaxFusedRunSkips}) {
    std::vector<ScriptNode> nodes{{"Neg", kM, {Ext(1, kM)}}};
    for (size_t i = 0; i < holes; ++i) {
      nodes.push_back({"MatMul", kM, {Ext(1, kM), Ext(1, kM)}});
    }
    nodes.push_back({"Relu", kM, {At(0)}});
    ScriptSource source(std::move(nodes));
    const FusedRunSelection selection = SelectFusedRun(source, cache);
    if (holes < kernels::kMaxFusedRunSkips) {
      EXPECT_EQ(selection.members.size(), 2u);
    } else {
      EXPECT_TRUE(selection.members.empty());
      EXPECT_EQ(source.last_position, static_cast<int>(holes));
    }
  }
}

TEST(FusionSelectorTest, ShrinksFromTheTailAndRetriesAreLookups) {
  kernels::FusedProgramCache cache;
  auto script = [] {
    return ScriptSource({
        {"Mul", kM, {Ext(1, kM), Ext(2, kScalar)}},
        {"Add", kM, {At(0), Ext(2, kScalar)}},
        // A scalar tail: the evaluation space is the last member's shape,
        // so the full run does not compile.
        {"Mul", kScalar, {Ext(2, kScalar), Ext(3, kScalar)}},
    });
  };
  ScriptSource first = script();
  EXPECT_EQ(SelectFusedRun(first, cache).members, (std::vector<int>{0, 1}));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);

  ScriptSource again = script();
  EXPECT_EQ(SelectFusedRun(again, cache).members, (std::vector<int>{0, 1}));
  EXPECT_EQ(cache.misses(), 2u) << "the cached rejection must be reused";
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(FusionSelectorTest, FirstTryCompileCostsOneLookup) {
  kernels::FusedProgramCache cache;
  for (int step = 1; step <= 3; ++step) {
    ScriptSource source({{"Mul", kM, {Ext(1, kM), Ext(2, kScalar)}},
                         {"Relu", kM, {At(0)}}});
    EXPECT_EQ(SelectFusedRun(source, cache).members.size(), 2u);
    EXPECT_EQ(cache.hits() + cache.misses(), static_cast<uint64_t>(step));
  }
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FusionSelectorTest, OperandsDedupByKeyAndReadOutsidePublishes) {
  kernels::FusedProgramCache cache;
  for (bool escapes : {false, true}) {
    ScriptSource source({
        {"Add", kM, {Ext(7, kM), Ext(7, kM)}, {}, escapes},
        {"Mul", kM, {At(0), Ext(9, kScalar)}},
    });
    const FusedRunSelection selection = SelectFusedRun(source, cache);
    ASSERT_EQ(selection.operands.size(), 2u);
    EXPECT_EQ(selection.operands[0].member, 0);
    EXPECT_EQ(selection.operands[0].input, 0);
    EXPECT_EQ(selection.operands[1].member, 1);
    EXPECT_EQ(selection.operands[1].input, 1);
    const std::vector<int> published =
        escapes ? std::vector<int>{0, 1} : std::vector<int>{1};
    EXPECT_EQ(selection.program->run.output_members, published);
  }
}

// ---- Both frontends, one selector -------------------------------------------

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  const std::vector<float> va = tensor_util::ToVector<float>(a);
  const std::vector<float> vb = tensor_util::ToVector<float>(b);
  return va.size() == vb.size() &&
         (va.empty() ||
          std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)) == 0);
}

// Member counts of the runs selected since the last call, in order.
std::vector<int64_t> CollectRuns() {
  const uint32_t fused_run = profiler::Intern("fused_run");
  std::vector<int64_t> runs;
  for (const profiler::CollectedEvent& e : profiler::Collect()) {
    if (e.event.kind == profiler::EventKind::kFusionRun &&
        e.event.name == fused_run) {
      runs.push_back(e.event.arg);
    }
  }
  return runs;
}

class FusionFrontendsTest : public ::testing::Test {
 protected:
  using Program = std::function<std::vector<Tensor>(const Tensor& x,
                                                    const Tensor& y)>;

  void SetUp() override {
    EagerContext::Options options;
    options.async = true;
    EagerContext::ResetGlobal(options);
    profiler::Stop();
    (void)profiler::Collect();
  }
  void TearDown() override {
    profiler::Stop();
    (void)profiler::Collect();
    EagerContext::ResetGlobal(EagerContext::Options());
  }

  // Runs `program` on the drain and as a staged function, requires both to
  // select the same runs and produce the same bits, and returns the runs.
  // The drain's input is gated: a pending handle resolved only once the
  // whole program is queued, so the drain parks on the first op and every
  // window it cuts sees the complete sequence, independent of thread timing.
  // When `computed_ops` is given, the program sets it while running, and
  // the staged graph must hold exactly that many computed nodes.
  std::vector<int64_t> ExpectSameRuns(const Program& program,
                                      const int* computed_ops = nullptr) {
    EagerContext* ctx = EagerContext::Global();
    const Tensor x = ops::random_normal({6, 8}, 0, 1, /*seed=*/11);
    const Tensor y = ops::scalar<float>(0.75f);
    EXPECT_TRUE(ctx->Sync().ok());
    profiler::Start();
    (void)profiler::Collect();
    const uint64_t kernels_before = ctx->stats().fused_runs.load();

    auto gate =
        TensorHandle::Pending(x.dtype(), x.shape(), ctx->HostCpu());
    const std::vector<Tensor> eager = program(Tensor::FromHandle(gate), y);
    gate->SetTensor(x, /*ready_ns=*/0);
    EXPECT_TRUE(ctx->Sync().ok());
    const std::vector<int64_t> drain_runs = CollectRuns();
    const uint64_t drain_kernels =
        ctx->stats().fused_runs.load() - kernels_before;

    Function staged = function(
        [&](const std::vector<Tensor>& args) {
          return program(args[0], args[1]);
        },
        "fusion_frontends_" + std::to_string(functions_++));
    if (computed_ops != nullptr) {
      // The sequence must reach the fusion pass as written: no op folded,
      // merged or pruned by Optimize.
      auto concrete = staged.GetConcreteFunction({x, y});
      EXPECT_TRUE(concrete.ok());
      int computed = 0;
      for (int i = 0; i < (*concrete)->graph().num_nodes(); ++i) {
        computed += (*concrete)->graph().node(i).is_bound() ? 0 : 1;
      }
      EXPECT_EQ(computed, *computed_ops);
    }
    const std::vector<Tensor> graph = staged({x, y});
    EXPECT_TRUE(ctx->Sync().ok());
    const std::vector<int64_t> static_runs = CollectRuns();
    const uint64_t static_kernels =
        ctx->stats().fused_runs.load() - kernels_before - drain_kernels;
    profiler::Stop();

    EXPECT_EQ(drain_runs, static_runs);
    // The same count of FusedElementwise launches, counted by the kernel.
    EXPECT_EQ(drain_kernels, static_kernels);
    EXPECT_EQ(eager.size(), graph.size());
    for (size_t i = 0; i < eager.size() && i < graph.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(eager[i], graph[i])) << "output " << i;
    }
    return drain_runs;
  }

  int functions_ = 0;
};

TEST_F(FusionFrontendsTest, NonFittingReductionIsSteppedOver) {
  // A full-count reduction over a leading axis cannot be the epilogue; the
  // ops behind it still join the run on both stages.
  const Tensor s = ops::scalar<float>(0.5f);
  const std::vector<int64_t> runs = ExpectSameRuns(
      [&](const Tensor& x, const Tensor&) -> std::vector<Tensor> {
        Tensor b = ops::add(ops::mul(x, s), x);
        Tensor r = ops::reduce_sum(b, {0});
        Tensor d = ops::sub(ops::relu(b), s);
        return {r, d};
      });
  EXPECT_EQ(runs, (std::vector<int64_t>{4}));
}

TEST_F(FusionFrontendsTest, ScalarTailShrinksAndAnchorsTheNextRun) {
  // The scalar u joins {a, b} but cannot end it (it would shrink the
  // evaluation space to one element), so the run shrinks to {a, b}. u keeps
  // its place behind the MatMul hole h, and then anchors {u, v}: by then h
  // has executed (drain) or precedes the anchor (graph), so v may read it.
  const Tensor s = ops::scalar<float>(0.5f);
  const std::vector<int64_t> runs = ExpectSameRuns(
      [&](const Tensor& x, const Tensor& y) -> std::vector<Tensor> {
        Tensor a = ops::mul(x, s);
        Tensor h = ops::matmul(x, x, /*transpose_a=*/true);
        Tensor b = ops::add(a, s);
        Tensor u = ops::mul(s, y);
        Tensor v = ops::add(h, u);
        return {b, v};
      });
  EXPECT_EQ(runs, (std::vector<int64_t>{2, 2}));
}

// A random elementwise / layout / reduction sequence over x ([6, 8]) and the
// scalar y, drawn like property_test's RandomProgram. It is built to reach
// the fusion pass unchanged: every op reads x or a value computed from it
// (nothing folds), no op repeats an (op, inputs) pair (nothing merges), and
// every value is returned (nothing is pruned). Sets *num_ops.
std::vector<Tensor> RandomFusionProgram(uint64_t seed, const Tensor& x,
                                        const Tensor& y, int* num_ops) {
  random::Philox gen(seed, 0);
  auto pick = [&](size_t n) {
    return static_cast<size_t>(gen.NextUint64() % n);
  };
  std::vector<Tensor> values{x};
  std::set<std::tuple<size_t, size_t, size_t>> emitted;
  std::vector<Tensor> outputs;
  for (int step = 0; step < 16; ++step) {
    const size_t ia = pick(values.size());
    const Tensor& a = values[ia];
    // A same-shape partner for binary ops, or y.
    constexpr size_t kY = ~size_t{0};
    std::vector<size_t> partners{kY};
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].shape() == a.shape()) partners.push_back(i);
    }
    const size_t ib = partners[pick(partners.size())];
    const Tensor& b = ib == kY ? y : values[ib];
    size_t kind = pick(12);
    const bool matrix = a.shape().rank() == 2;
    if (kind == 7 && !matrix) kind = 6;   // transpose: neg instead
    if (kind == 10 && !matrix) kind = 4;  // leading reduction: tanh instead
    if (!emitted.insert({kind, ia, kind < 4 ? ib : 0}).second) continue;
    const std::vector<int64_t> trailing =
        a.shape().rank() > 0 ? std::vector<int64_t>{-1}
                             : std::vector<int64_t>{};
    Tensor next;
    switch (kind) {
      case 0: next = ops::add(a, b); break;
      case 1: next = ops::sub(a, b); break;
      case 2: next = ops::mul(a, b); break;
      case 3: next = ops::maximum(a, b); break;
      case 4: next = ops::tanh(a); break;
      case 5: next = ops::relu(a); break;
      case 6: next = ops::neg(a); break;
      case 7: next = ops::transpose(a, {1, 0}); break;
      case 8:
        next = ops::reshape(a, {a.shape().num_elements()});
        break;
      case 9:  // trailing: an epilogue when it covers the run
        next = ops::reduce_sum(a, trailing);
        break;
      case 10:  // leading: never an epilogue
        next = ops::reduce_mean(a, {0});
        break;
      default:
        next = ops::reduce_max(a);
        break;
    }
    values.push_back(next);
    outputs.push_back(next);
  }
  *num_ops = static_cast<int>(outputs.size());
  return outputs;
}

TEST_F(FusionFrontendsTest, RandomSequencesFormTheSameRuns) {
  int fused = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    int num_ops = 0;
    auto program = [&](const Tensor& x, const Tensor& y) {
      return RandomFusionProgram(seed, x, y, &num_ops);
    };
    const std::vector<int64_t> runs = ExpectSameRuns(program, &num_ops);
    fused += static_cast<int>(runs.size());
    if (HasFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
  EXPECT_GT(fused, 0) << "no random sequence fused at all";
}

}  // namespace
}  // namespace tfe
