// Static memory planning for staged functions (graph/memory_planner.*,
// DESIGN.md §17). The contract under test: planning changes *which storage*
// a staged run's intermediates land in — one packed slab plus forwarded
// retired blocks instead of per-op arena allocations — and nothing else.
// Outputs must stay bitwise-identical with planning on, off, or bypassed,
// and every bypass (EagerContext::set_memory_plan(false), a non-arena
// allocator) must fully disable the machinery so sanitizers keep true per-buffer lifetimes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "api/tfe.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "kernels/kernel_util.h"
#include "profiler/metrics.h"
#include "runtime/eager_context.h"
#include "staging/control_flow.h"
#include "tensor/allocator.h"
#include "tensor/buffer.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

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

class MemoryPlanTest : public ::testing::Test {
 protected:
  void TearDown() override {
    EagerContext::ResetGlobal(EagerContext::Options());
  }
};

// A residual-tower-ish step: matmuls keep the elementwise segments from
// fusing into one node, so the variant has planned intermediates (matmul
// outputs feeding fused segments and vice versa).
Function MakeTower(const std::string& name) {
  return function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor x = args[0];
        Tensor w = args[1];
        Tensor h = x;
        for (int layer = 0; layer < 3; ++layer) {
          Tensor z = ops::matmul(h, w);
          h = ops::add(ops::relu(z), h);  // residual join
        }
        return {ops::matmul(h, w)};
      },
      name);
}

TEST_F(MemoryPlanTest, BufferViewSharesSlabStorage) {
  EagerContext::ResetGlobal(EagerContext::Options());
  const std::shared_ptr<Allocator>& allocator = ProcessAllocator();
  const uint64_t deallocs_before = allocator->stats().deallocations.load();
  std::shared_ptr<Buffer> slab = Buffer::Allocate(1024, allocator);
  {
    std::shared_ptr<Buffer> view = Buffer::View(slab, 128, 256);
    EXPECT_TRUE(view->is_view());
    EXPECT_FALSE(slab->is_view());
    EXPECT_EQ(view->bytes(), 256u);
    EXPECT_EQ(static_cast<char*>(view->data()),
              static_cast<char*>(slab->data()) + 128);
    EXPECT_EQ(view->base().get(), slab.get());
    // The view keeps the slab alive.
    EXPECT_EQ(slab.use_count(), 2);
  }
  // Destroying the view returned nothing to the allocator.
  EXPECT_EQ(allocator->stats().deallocations.load(), deallocs_before);
  EXPECT_EQ(slab.use_count(), 1);
}

TEST_F(MemoryPlanTest, PlanPacksIntermediatesAndReusesBlocks) {
  EagerContext::ResetGlobal(EagerContext::Options());
  Tensor x = ops::mul(ops::random_normal({16, 16}, 0, 1, /*seed=*/11),
                      ops::scalar<float>(0.1f));
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor h = ops::matmul(args[0], args[0]);
        h = ops::relu(h);
        h = ops::matmul(h, args[0]);
        h = ops::relu(h);
        h = ops::matmul(h, args[0]);
        return {ops::reduce_sum(h)};
      },
      "plan_chain");
  auto concrete = f.GetConcreteFunction({x});
  ASSERT_TRUE(concrete.ok());
  std::shared_ptr<const memplan::MemoryPlan> plan =
      memplan::BuildPlan(*concrete.value());
  ASSERT_NE(plan, nullptr);
  // Five same-sized intermediates (3 matmuls + 2 relus) minus the escaping
  // chain tail; lifetimes form a chain, so blocks must be recycled and the
  // slab must be smaller than five full tensors.
  EXPECT_GE(plan->num_slots(), 4);
  EXPECT_GE(plan->reused_blocks(), 1);
  EXPECT_GT(plan->slab_bytes(), 0u);
  EXPECT_LT(plan->slab_bytes(), 5 * 16 * 16 * sizeof(float));
  // Function outputs always escape.
  for (const Endpoint& e : concrete.value()->outputs()) {
    EXPECT_EQ(plan->Find(e.node_id, e.index), nullptr);
  }
  // Every slot lies within the slab.
  for (const memplan::PlannedSlot& slot : plan->slots()) {
    EXPECT_LE(slot.offset + slot.bytes, plan->slab_bytes());
  }
}

TEST_F(MemoryPlanTest, FusedVariantProvesSkipZeroStores) {
  EagerContext::ResetGlobal(EagerContext::Options());
  EagerContext* ctx = EagerContext::Global();
  Tensor x = ops::mul(ops::random_normal({8, 8}, 0, 1, /*seed=*/5),
                      ops::scalar<float>(0.1f));
  Function f = MakeTower("skip_zero_tower");
  auto concrete = f.GetConcreteFunction({x, x});
  ASSERT_TRUE(concrete.ok());
  std::shared_ptr<GraphFunction> variant =
      passes::FusedExecutionVariant(ctx, ctx->HostCpu(), concrete.value());
  ASSERT_NE(variant, nullptr);
  std::shared_ptr<const memplan::MemoryPlan> plan =
      memplan::BuildPlan(*variant);
  ASSERT_NE(plan, nullptr);
  // The fused relu+add segments store their planned outputs over the full
  // evaluation space, so at least one handout memset is provably elided.
  EXPECT_GE(plan->num_skip_zero_slots(), 1);
}

// Runs `steps` staged tower steps and returns the outputs of the last one,
// plus the allocator calls per steady-state step.
std::vector<float> RunTower(bool planning, int steps,
                            uint64_t* alloc_calls_per_step) {
  // Pin the arena so the measurement survives a TFE_ALLOCATOR=system
  // environment (the tier-2 sanitizer sweep): the point here is the planned
  // vs per-op allocation delta, not the allocator family.
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kArena});
  EagerContext::Global()->set_memory_plan(planning);
  Tensor x = ops::mul(ops::random_normal({32, 32}, 0, 1, /*seed=*/21),
                      ops::scalar<float>(0.05f));
  Tensor w = ops::mul(ops::random_normal({32, 32}, 0, 1, /*seed=*/22),
                      ops::scalar<float>(0.05f));
  Function step = MakeTower("tower_ab");
  Tensor y;
  for (int i = 0; i < 3; ++i) y = step({x, w})[0];  // warm up: trace + slab
  EXPECT_TRUE(EagerContext::Global()->Sync().ok());
  profiler::Counter* alloc_calls =
      profiler::Metrics().GetCounter("allocator.alloc_calls");
  const uint64_t before = alloc_calls->value();
  for (int i = 0; i < steps; ++i) y = step({x, w})[0];
  EXPECT_TRUE(EagerContext::Global()->Sync().ok());
  if (alloc_calls_per_step != nullptr) {
    *alloc_calls_per_step =
        (alloc_calls->value() - before) / static_cast<uint64_t>(steps);
  }
  return ToVector<float>(y);
}

TEST_F(MemoryPlanTest, OutputsBitwiseIdenticalAndFewerAllocatorCalls) {
  uint64_t unplanned_calls = 0;
  uint64_t planned_calls = 0;
  std::vector<float> baseline = RunTower(false, 6, &unplanned_calls);
  std::vector<float> planned = RunTower(true, 6, &planned_calls);
  EXPECT_TRUE(BitwiseEqual(baseline, planned));
  // The steady-state planned step must allocate dramatically less — the
  // bench gates 30%; the chain here plans nearly every intermediate.
  EXPECT_GT(unplanned_calls, 0u);
  EXPECT_LE(planned_calls * 10, unplanned_calls * 7)
      << "planned " << planned_calls << " vs unplanned " << unplanned_calls;
}

TEST_F(MemoryPlanTest, OverrideAndSystemAllocatorBypassPlanning) {
  profiler::Counter* plan_runs =
      profiler::Metrics().GetCounter("allocator.plan.runs");

  // Planning off: the staged run must never touch the planner.
  EagerContext::ResetGlobal(EagerContext::Options());
  EagerContext::Global()->set_memory_plan(false);
  {
    Tensor x = ops::random_normal({16, 16}, 0, 1, /*seed=*/7);
    Function step = MakeTower("bypass_off");
    const uint64_t before = plan_runs->value();
    for (int i = 0; i < 2; ++i) (void)step({x, x});
    ASSERT_TRUE(EagerContext::Global()->Sync().ok());
    EXPECT_EQ(plan_runs->value(), before);
  }

  // Planning on but a system allocator (the TFE_ALLOCATOR=system
  // configuration): still fully bypassed.
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kSystem});
  {
    Tensor x = ops::random_normal({16, 16}, 0, 1, /*seed=*/7);
    Function step = MakeTower("bypass_system");
    const uint64_t before = plan_runs->value();
    for (int i = 0; i < 2; ++i) (void)step({x, x});
    ASSERT_TRUE(EagerContext::Global()->Sync().ok());
    EXPECT_EQ(plan_runs->value(), before);
  }

  // Planning on, arena allocator (forced, so a TFE_ALLOCATOR=system
  // environment cannot mask the positive control): the plan activates.
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kArena});
  {
    Tensor x = ops::random_normal({16, 16}, 0, 1, /*seed=*/7);
    Function step = MakeTower("bypass_arena");
    const uint64_t before = plan_runs->value();
    for (int i = 0; i < 2; ++i) (void)step({x, x});
    ASSERT_TRUE(EagerContext::Global()->Sync().ok());
    EXPECT_GT(plan_runs->value(), before);
  }

  // The switch is context state, not process state: a planning-off context
  // followed by a fresh default (arena) context plans again.
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kArena});
  EagerContext::Global()->set_memory_plan(false);
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kArena});
  EXPECT_TRUE(EagerContext::Global()->memory_plan());
  {
    Tensor x = ops::random_normal({16, 16}, 0, 1, /*seed=*/7);
    Function step = MakeTower("bypass_fresh");
    const uint64_t before = plan_runs->value();
    for (int i = 0; i < 2; ++i) (void)step({x, x});
    ASSERT_TRUE(EagerContext::Global()->Sync().ok());
    EXPECT_GT(plan_runs->value(), before);
  }
}

TEST_F(MemoryPlanTest, CrossRunForwardingClaimsRetiredOutputs) {
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kArena});
  Tensor x = ops::mul(ops::random_normal({32, 32}, 0, 1, /*seed=*/31),
                      ops::scalar<float>(0.05f));
  Tensor w = ops::mul(ops::random_normal({32, 32}, 0, 1, /*seed=*/32),
                      ops::scalar<float>(0.05f));
  Function step = MakeTower("forward_tower");
  profiler::Counter* forwarded =
      profiler::Metrics().GetCounter("allocator.plan.forwarded_buffers");
  const uint64_t before = forwarded->value();
  // x = step(x): generation N-1's escaping output dies when `h` rebinds,
  // so generation N+1 claims its block from the forwarding pool.
  Tensor h = x;
  for (int i = 0; i < 6; ++i) h = step({h, w})[0];
  ASSERT_TRUE(EagerContext::Global()->Sync().ok());
  EXPECT_GT(forwarded->value(), before);

  // And the forwarded storage computed the same values as planning off.
  std::vector<float> got = ToVector<float>(h);
  EagerContext::ResetGlobal({.allocator = AllocatorKind::kArena});
  EagerContext::Global()->set_memory_plan(false);
  Tensor x2 = ops::mul(ops::random_normal({32, 32}, 0, 1, /*seed=*/31),
                       ops::scalar<float>(0.05f));
  Tensor w2 = ops::mul(ops::random_normal({32, 32}, 0, 1, /*seed=*/32),
                       ops::scalar<float>(0.05f));
  Function step2 = MakeTower("forward_tower_base");
  Tensor h2 = x2;
  for (int i = 0; i < 6; ++i) h2 = step2({h2, w2})[0];
  EXPECT_TRUE(BitwiseEqual(ToVector<float>(h2), got));
}

TEST_F(MemoryPlanTest, DonationNeverTargetsPlanSlabViews) {
  EagerContext::ResetGlobal(EagerContext::Options());
  EagerContext* ctx = EagerContext::Global();
  Device* cpu = ctx->HostCpu();

  std::shared_ptr<Buffer> slab =
      Buffer::Allocate(1024, cpu->allocator_shared());
  std::shared_ptr<Buffer> view = Buffer::View(slab, 0, 64 * sizeof(float));
  Tensor view_donor =
      Tensor::Concrete(DType::kFloat32, Shape({64}), view, cpu);

  AttrMap attrs;
  KernelContext kctx(ctx, cpu, {view_donor}, &attrs);
  Tensor out =
      kernels::DonateOutput(&kctx, 0, DType::kFloat32, Shape({64}), view_donor);
  // The guard must substitute a fresh allocation: a slab view's bytes belong
  // to the plan's block-reuse schedule, never to a published output.
  ASSERT_NE(out.buffer(), nullptr);
  EXPECT_NE(out.buffer().get(), view.get());
  EXPECT_FALSE(out.buffer()->is_view());

  // A normal owning donor still aliases (the PR 6/7/8 fast path is intact).
  Tensor owning_donor = ops::random_normal({64}, 0, 1, /*seed=*/3);
  ASSERT_TRUE(owning_donor.Materialize().ok());
  KernelContext kctx2(ctx, cpu, {owning_donor}, &attrs);
  Tensor out2 = kernels::DonateOutput(&kctx2, 0, DType::kFloat32, Shape({64}),
                                      owning_donor);
  EXPECT_EQ(out2.buffer().get(), owning_donor.buffer().get());
}

TEST_F(MemoryPlanTest, WhileGradientBitwiseWithPlanning) {
  // The While gradient replays the staged body off per-iteration snapshot
  // stacks (PR 9). Snapshots retain body *outputs*, which always escape the
  // body's plan — so planning must not perturb the gradient bitwise.
  auto run_grad = [](bool planning) -> std::vector<float> {
    EagerContext::ResetGlobal(EagerContext::Options());
    EagerContext::Global()->set_memory_plan(planning);
    Tensor x0 = ops::mul(ops::random_normal({8, 8}, 0, 1, /*seed=*/41),
                         ops::scalar<float>(0.1f));
    Tensor w = ops::mul(ops::random_normal({8, 8}, 0, 1, /*seed=*/42),
                        ops::scalar<float>(0.1f));
    Function below = function(
        [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
          return {ops::less(vars[0], ops::fill(DType::kFloat32, {}, 4.0))};
        },
        planning ? "wg_plan_below" : "wg_base_below");
    Function body = function(
        [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
          return {ops::add(vars[0], ops::fill(DType::kFloat32, {}, 1.0)),
                  ops::tanh(ops::matmul(vars[1], vars[2])), vars[2]};
        },
        planning ? "wg_plan_body" : "wg_base_body");
    Function staged = function(
        [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
          auto vars = ops::while_loop(
              below, body, {ops::scalar<float>(0.0f), args[0], args[1]});
          return {ops::reduce_sum(vars[1])};
        },
        planning ? "wg_plan_staged" : "wg_base_staged");
    GradientTape tape;
    tape.watch(x0);
    tape.watch(w);
    Tensor y = staged({x0, w})[0];
    tape.StopRecording();
    std::vector<Tensor> grads = std::move(tape.gradient(y, {x0, w})).value();
    std::vector<float> flat = ToVector<float>(grads[0]);
    std::vector<float> gw = ToVector<float>(grads[1]);
    flat.insert(flat.end(), gw.begin(), gw.end());
    return flat;
  };
  std::vector<float> baseline = run_grad(false);
  std::vector<float> planned = run_grad(true);
  EXPECT_TRUE(BitwiseEqual(baseline, planned));
}

}  // namespace
}  // namespace tfe
