// Graph optimization passes: pruning, CSE, constant folding (paper §5).
#include <gtest/gtest.h>

#include <cmath>

#include "api/tfe.h"
#include "graph/passes.h"
#include "staging/trace_context.h"

namespace tfe {
namespace {

int CountOps(const GraphFunction& fn, const std::string& op) {
  int count = 0;
  for (int i = 0; i < fn.graph().num_nodes(); ++i) {
    if (fn.graph().node(i).def->name == op) ++count;
  }
  return count;
}

// Traces `body` WITHOUT running the optimizer, so passes can be tested in
// isolation.
std::shared_ptr<GraphFunction> TraceRaw(
    const std::string& name, int num_args,
    std::function<std::vector<Tensor>(const std::vector<Tensor>&)> body) {
  auto fn = std::make_shared<GraphFunction>(name);
  TraceContext trace(fn, EagerContext::Global());
  std::vector<Tensor> params;
  for (int i = 0; i < num_args; ++i) {
    params.push_back(trace.AddParameter(DType::kFloat32, Shape()).value());
  }
  for (Tensor& out : body(params)) {
    fn->outputs().push_back({out.node_id(), out.output_index()});
  }
  return fn;
}

TEST(PassesTest, PruneRemovesDeadNonStatefulOps) {
  auto fn = TraceRaw("prune_dead", 1, [](const std::vector<Tensor>& args) {
    Tensor dead = ops::exp(args[0]);   // unused
    Tensor dead2 = ops::mul(dead, dead);  // unused
    (void)dead2;
    return std::vector<Tensor>{ops::add(args[0], args[0])};
  });
  passes::PassStats stats;
  ASSERT_TRUE(passes::Prune(*fn, &stats).ok());
  EXPECT_EQ(stats.pruned_nodes, 2);
  EXPECT_EQ(CountOps(*fn, "Exp"), 0);
  EXPECT_EQ(CountOps(*fn, "Add"), 1);
}

TEST(PassesTest, PruneKeepsStatefulOps) {
  // "non-stateful operations that are not reachable from the outputs of a
  // function are pruned" — stateful ones are NOT.
  Variable v(ops::scalar<float>(0.0f));
  auto fn = TraceRaw("prune_stateful", 1, [&](const std::vector<Tensor>& args) {
    v.assign(args[0]);  // side effect, unreachable from outputs
    Tensor dead = ops::exp(args[0]);
    (void)dead;
    return std::vector<Tensor>{ops::add(args[0], args[0])};
  });
  passes::PassStats stats;
  ASSERT_TRUE(passes::Prune(*fn, &stats).ok());
  EXPECT_EQ(CountOps(*fn, "AssignVariableOp"), 1);
  EXPECT_EQ(CountOps(*fn, "Exp"), 0);
}

TEST(PassesTest, PruneKeepsArgs) {
  auto fn = TraceRaw("prune_args", 2, [](const std::vector<Tensor>& args) {
    return std::vector<Tensor>{ops::identity(args[0])};  // args[1] unused
  });
  ASSERT_TRUE(passes::Prune(*fn).ok());
  EXPECT_EQ(CountOps(*fn, "Arg"), 2);  // call signature unchanged
  EXPECT_EQ(fn->num_args(), 2);
}

TEST(PassesTest, CseMergesIdenticalOps) {
  auto fn = TraceRaw("cse", 1, [](const std::vector<Tensor>& args) {
    Tensor a = ops::exp(args[0]);
    Tensor b = ops::exp(args[0]);  // identical
    return std::vector<Tensor>{ops::add(a, b)};
  });
  passes::PassStats stats;
  ASSERT_TRUE(passes::EliminateCommonSubexpressions(*fn, &stats).ok());
  EXPECT_EQ(stats.cse_merged, 1);
  EXPECT_EQ(CountOps(*fn, "Exp"), 1);
}

TEST(PassesTest, CseRespectsAttrs) {
  auto fn = TraceRaw("cse_attrs", 1, [](const std::vector<Tensor>& args) {
    Tensor m = ops::expand_dims(args[0], 0);
    Tensor a = ops::reduce_sum(m, {0}, true);
    Tensor b = ops::reduce_sum(m, {0}, false);  // different attrs
    return std::vector<Tensor>{a, b};
  });
  passes::PassStats stats;
  ASSERT_TRUE(passes::EliminateCommonSubexpressions(*fn, &stats).ok());
  EXPECT_EQ(stats.cse_merged, 0);
  EXPECT_EQ(CountOps(*fn, "Sum"), 2);
}

TEST(PassesTest, CseNeverMergesStatefulOps) {
  auto fn = TraceRaw("cse_random", 0, [](const std::vector<Tensor>&) {
    Tensor a = ops::random_normal({2});
    Tensor b = ops::random_normal({2});  // must stay distinct draws!
    return std::vector<Tensor>{ops::add(a, b)};
  });
  passes::PassStats stats;
  ASSERT_TRUE(passes::EliminateCommonSubexpressions(*fn, &stats).ok());
  EXPECT_EQ(CountOps(*fn, "RandomNormal"), 2);
}

TEST(PassesTest, ConstantFolding) {
  auto fn = TraceRaw("fold", 1, [](const std::vector<Tensor>& args) {
    Tensor c = ops::add(ops::scalar<float>(2.0f), ops::scalar<float>(3.0f));
    return std::vector<Tensor>{ops::mul(args[0], c)};
  });
  EXPECT_EQ(CountOps(*fn, "Add"), 1);
  passes::PassStats stats;
  ASSERT_TRUE(passes::FoldConstants(*fn, &stats).ok());
  ASSERT_TRUE(passes::Prune(*fn, &stats).ok());
  EXPECT_EQ(stats.folded_constants, 1);
  EXPECT_EQ(CountOps(*fn, "Add"), 0);
  // Folded payload is correct.
  bool found = false;
  for (int i = 0; i < fn->graph().num_nodes(); ++i) {
    const Node& node = fn->graph().node(i);
    if (node.def->name == "Const" && node.constant_value.defined() &&
        node.constant_value.num_elements() == 1 &&
        node.constant_value.dtype() == DType::kFloat32 &&
        node.constant_value.scalar<float>() == 5.0f) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PassesTest, FoldingCascades) {
  auto fn = TraceRaw("fold_chain", 1, [](const std::vector<Tensor>& args) {
    Tensor c1 = ops::add(ops::scalar<float>(1.0f), ops::scalar<float>(1.0f));
    Tensor c2 = ops::mul(c1, ops::scalar<float>(3.0f));  // foldable after c1
    return std::vector<Tensor>{ops::add(args[0], c2)};
  });
  passes::PassStats stats;
  ASSERT_TRUE(passes::FoldConstants(*fn, &stats).ok());
  EXPECT_EQ(stats.folded_constants, 2);
}

TEST(PassesTest, FuseElementwiseAbsorbsCast) {
  // Cast rides inside a static fused run as a kCast micro-op: the int32
  // argument feeds the run as a foreign operand and the fused node's
  // compiled run carries the run dtype so the kernel knows what to convert
  // to.
  auto fn = std::make_shared<GraphFunction>("fuse_cast_static");
  {
    TraceContext trace(fn, EagerContext::Global());
    Tensor xi = trace.AddParameter(DType::kInt32, Shape({4})).value();
    Tensor xf = trace.AddParameter(DType::kFloat32, Shape({4})).value();
    Tensor h = ops::add(ops::cast(xi, DType::kFloat32), xf);
    h = ops::relu(ops::mul(h, h));
    fn->outputs().push_back({h.node_id(), h.output_index()});
  }
  passes::PassStats stats;
  ASSERT_TRUE(passes::FuseElementwise(*fn, &stats).ok());
  EXPECT_EQ(stats.fused_runs, 1);
  EXPECT_EQ(stats.fused_nodes, 4);
  EXPECT_EQ(CountOps(*fn, "Cast"), 0);
  EXPECT_EQ(CountOps(*fn, "FusedElementwise"), 1);
  for (int i = 0; i < fn->graph().num_nodes(); ++i) {
    const Node& node = fn->graph().node(i);
    if (node.def->name != "FusedElementwise") continue;
    ASSERT_NE(node.program, nullptr);
    EXPECT_EQ(node.program->dtype, DType::kFloat32)
        << "cast-bearing program must pin the run dtype";
    EXPECT_TRUE(node.attrs.empty());
  }
}

TEST(PassesTest, FuseElementwiseSplitsRunsAtDtypeChange) {
  // A dtype change splits the run: the cast heads the run of its *output*
  // dtype and reads the earlier run's result as a foreign operand.
  auto fn = std::make_shared<GraphFunction>("fuse_cast_cut");
  {
    TraceContext trace(fn, EagerContext::Global());
    Tensor xf = trace.AddParameter(DType::kFloat32, Shape({4})).value();
    Tensor f_chain = ops::mul(ops::add(xf, xf), xf);       // float run
    Tensor i = ops::cast(f_chain, DType::kInt32);          // dtype changes
    Tensor i_chain = ops::add(ops::add(i, i), i);          // int32 run
    fn->outputs().push_back({i_chain.node_id(), i_chain.output_index()});
  }
  passes::PassStats stats;
  ASSERT_TRUE(passes::FuseElementwise(*fn, &stats).ok());
  // Two runs: [add, mul] float and [cast, add, add] int32 — the cast joins
  // the run of its *output* dtype, never the float run it reads from.
  EXPECT_EQ(stats.fused_runs, 2);
  EXPECT_EQ(CountOps(*fn, "Cast"), 0);
  EXPECT_EQ(CountOps(*fn, "FusedElementwise"), 2);
}

TEST(PassesTest, FuseElementwiseAbsorbsLayoutAndReduction) {
  // The widened recognition: transposes and the bias-add broadcast ride
  // inside the run as indexed loads, and the trailing reduce_sum joins as
  // the run's map-reduce epilogue — one FusedElementwise node remains.
  auto fn = std::make_shared<GraphFunction>("fuse_map_reduce_static");
  {
    TraceContext trace(fn, EagerContext::Global());
    Tensor x = trace.AddParameter(DType::kFloat32, Shape({6, 10})).value();
    Tensor bias = trace.AddParameter(DType::kFloat32, Shape({10})).value();
    Tensor h = ops::add(x, bias);
    h = ops::transpose(h, {1, 0});
    h = ops::mul(h, ops::scalar<float>(0.5f));
    h = ops::transpose(h, {1, 0});
    Tensor r = ops::reduce_sum(ops::relu(h), {1});
    fn->outputs().push_back({r.node_id(), r.output_index()});
  }
  passes::PassStats stats;
  ASSERT_TRUE(passes::FuseElementwise(*fn, &stats).ok());
  EXPECT_EQ(stats.fused_runs, 1);
  EXPECT_EQ(stats.fused_reduce_runs, 1);
  EXPECT_EQ(CountOps(*fn, "Transpose"), 0);
  EXPECT_EQ(CountOps(*fn, "Sum"), 0);
  EXPECT_EQ(CountOps(*fn, "FusedElementwise"), 1);
}

TEST(PassesTest, FuseElementwiseLongInterleavedChainStaysOneRun) {
  // Acceptance gate for the widened window: a 60-op chain alternating
  // elementwise with transposes/bias-adds must keep a mean run length above
  // 16 (layout cuts previously capped it around 2).
  auto fn = std::make_shared<GraphFunction>("fuse_interleaved_long");
  {
    TraceContext trace(fn, EagerContext::Global());
    Tensor x = trace.AddParameter(DType::kFloat32, Shape({8, 8})).value();
    Tensor bias = trace.AddParameter(DType::kFloat32, Shape({8})).value();
    Tensor h = x;
    for (int i = 0; i < 20; ++i) {
      h = ops::add(h, bias);          // bias-add
      h = ops::transpose(h, {1, 0});  // layout
      h = ops::relu(h);               // elementwise
    }
    fn->outputs().push_back({h.node_id(), h.output_index()});
  }
  passes::PassStats stats;
  ASSERT_TRUE(passes::FuseElementwise(*fn, &stats).ok());
  ASSERT_GT(stats.fused_runs, 0);
  EXPECT_GT(stats.fused_nodes / stats.fused_runs, 16)
      << "fused_nodes=" << stats.fused_nodes
      << " fused_runs=" << stats.fused_runs;
  EXPECT_EQ(CountOps(*fn, "Transpose"), 0);
}

TEST(PassesTest, FuseElementwiseCapturesNonContiguousDagSegments) {
  // A non-fusable MatMul interleaved in a diamond no longer cuts the run:
  // the scan steps over the hole and fuses {add, relu, add} around it. The
  // final add reads the MatMul — a skipped node — so it must stay out of
  // the run (joining would hoist it above its producer).
  auto fn = std::make_shared<GraphFunction>("fuse_dag_holes");
  {
    TraceContext trace(fn, EagerContext::Global());
    Tensor x = trace.AddParameter(DType::kFloat32, Shape({4, 4})).value();
    Tensor a = ops::add(x, x);
    Tensor m = ops::matmul(x, x);  // the hole
    Tensor b = ops::relu(a);
    Tensor c = ops::add(b, a);     // diamond join: a has two in-run readers
    Tensor out = ops::add(c, m);   // reads the skipped node
    fn->outputs().push_back({out.node_id(), out.output_index()});
  }
  passes::PassStats stats;
  ASSERT_TRUE(passes::FuseElementwise(*fn, &stats).ok());
  EXPECT_EQ(stats.fused_runs, 1);
  EXPECT_EQ(stats.fused_nodes, 3);
  EXPECT_EQ(stats.fused_dag_runs, 1);
  EXPECT_EQ(CountOps(*fn, "FusedElementwise"), 1);
  EXPECT_EQ(CountOps(*fn, "MatMul"), 1);
  EXPECT_EQ(CountOps(*fn, "Relu"), 0);
  EXPECT_EQ(CountOps(*fn, "Add"), 1);  // only the MatMul consumer survives
}

TEST(PassesTest, FuseElementwiseEmitsMultiOutputDiamonds) {
  // Both the diamond's intermediate and its join are function outputs, so
  // the single fused node must publish two values.
  auto fn = std::make_shared<GraphFunction>("fuse_multi_output");
  {
    TraceContext trace(fn, EagerContext::Global());
    Tensor x = trace.AddParameter(DType::kFloat32, Shape({8})).value();
    Tensor a = ops::add(x, x);
    Tensor b = ops::relu(a);
    Tensor c = ops::add(b, a);
    fn->outputs().push_back({b.node_id(), b.output_index()});
    fn->outputs().push_back({c.node_id(), c.output_index()});
  }
  passes::PassStats stats;
  ASSERT_TRUE(passes::FuseElementwise(*fn, &stats).ok());
  EXPECT_EQ(stats.fused_runs, 1);
  EXPECT_EQ(stats.fused_nodes, 3);
  EXPECT_EQ(stats.fused_dag_runs, 1);
  EXPECT_EQ(CountOps(*fn, "FusedElementwise"), 1);
  for (int i = 0; i < fn->graph().num_nodes(); ++i) {
    const Node& node = fn->graph().node(i);
    if (node.def->name != "FusedElementwise") continue;
    EXPECT_EQ(node.outputs.size(), 2u);
  }
}

TEST(PassesTest, DagFusedFunctionComputesTheSameValues) {
  // End-to-end through the staged executor: a residual diamond tower with a
  // MatMul hole must produce exactly the bits eager op-at-a-time execution
  // produces (the fused interpreter applies identical scalar expressions).
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor m = ops::matmul(args[0], args[0]);
        Tensor h = args[0];
        for (int i = 0; i < 4; ++i) {
          Tensor t = ops::relu(ops::mul(h, ops::scalar<float>(0.5f)));
          h = ops::add(t, h);
        }
        return {ops::add(h, m)};
      },
      "dag_e2e");
  Tensor x = ops::random_normal({4, 4}, 0, 1, /*seed=*/23);
  std::vector<float> staged = tensor_util::ToVector<float>(f({x})[0]);

  Tensor m = ops::matmul(x, x);
  Tensor h = x;
  for (int i = 0; i < 4; ++i) {
    Tensor t = ops::relu(ops::mul(h, ops::scalar<float>(0.5f)));
    h = ops::add(t, h);
  }
  std::vector<float> eager = tensor_util::ToVector<float>(ops::add(h, m));
  EXPECT_EQ(staged, eager);
}

TEST(PassesTest, OptimizedFunctionStillComputesCorrectly) {
  // End-to-end: the default pipeline must preserve semantics.
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor waste = ops::exp(ops::exp(args[0]));  // dead
        (void)waste;
        Tensor c = ops::mul(ops::scalar<float>(2.0f),
                            ops::scalar<float>(4.0f));  // folds to 8
        Tensor a = ops::tanh(args[0]);
        Tensor b = ops::tanh(args[0]);  // CSE with a
        return {ops::add(ops::mul(a, c), b)};
      },
      "optimized_e2e");
  float x = 0.5f;
  float expected = std::tanh(x) * 8.0f + std::tanh(x);
  EXPECT_NEAR(f({ops::scalar<float>(x)})[0].scalar<float>(), expected, 1e-5);
  auto concrete = f.GetConcreteFunction({ops::scalar<float>(x)});
  ASSERT_TRUE(concrete.ok());
  EXPECT_EQ(CountOps(**concrete, "Exp"), 0);   // pruned
  EXPECT_EQ(CountOps(**concrete, "Tanh"), 1);  // merged
  EXPECT_EQ(CountOps(**concrete, "Mul"), 1);   // constant folded away
}

}  // namespace
}  // namespace tfe
