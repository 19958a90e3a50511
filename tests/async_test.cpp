// Asynchronous eager execution (paper §5): per-device in-order op queues,
// TensorHandle futures, sync points, and deferred error propagation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "api/tfe.h"
#include "kernels/run_selector.h"
#include "profiler/metrics.h"
#include "profiler/profiler.h"
#include "tensor/tensor_handle.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

// Async mode is a context-wide switch; each fixture restores the default
// synchronous runtime so other tests are unaffected.
class AsyncTest : public ::testing::Test {
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

TEST(AsyncDefaultTest, SynchronousByDefault) {
  EagerContext::ResetGlobal(EagerContext::Options());
  EXPECT_FALSE(EagerContext::Global()->async());
  Tensor a = ops::constant<float>({1, 2}, {2});
  Tensor b = ops::add(a, a);
  // Synchronous dispatch returns materialized values, never futures.
  EXPECT_EQ(b.pending_handle(), nullptr);
  EXPECT_EQ(ToVector<float>(b), (std::vector<float>{2, 4}));
}

TEST_F(AsyncTest, DispatchReturnsFutureWithMetadata) {
  Tensor a = ops::constant<float>({1, 2, 3, 4}, {2, 2});
  Tensor b = ops::matmul(a, a);
  // The handle carries dtype/shape from shape inference; metadata reads do
  // not block on the kernel.
  EXPECT_NE(b.pending_handle(), nullptr);
  EXPECT_EQ(b.dtype(), DType::kFloat32);
  EXPECT_EQ(b.shape(), Shape({2, 2}));
  // Reading the value is the sync point.
  EXPECT_EQ(ToVector<float>(b), (std::vector<float>{7, 10, 15, 22}));
  EXPECT_TRUE(b.pending_handle()->resolved());
}

TEST_F(AsyncTest, ChainMatchesSynchronousValues) {
  Tensor x = ops::constant<float>({1, -2, 3, -4}, {4});
  Tensor h = x;
  for (int i = 0; i < 50; ++i) {
    h = ops::add(ops::mul(h, ops::scalar<float>(0.5f)), x);
  }
  ASSERT_TRUE(EagerContext::Global()->Sync().ok());
  std::vector<float> async_values = ToVector<float>(h);

  EagerContext::Global()->set_async(false);
  Tensor hs = x;
  for (int i = 0; i < 50; ++i) {
    hs = ops::add(ops::mul(hs, ops::scalar<float>(0.5f)), x);
  }
  std::vector<float> sync_values = ToVector<float>(hs);
  ASSERT_EQ(async_values.size(), sync_values.size());
  for (size_t i = 0; i < sync_values.size(); ++i) {
    EXPECT_NEAR(async_values[i], sync_values[i], 1e-5) << "element " << i;
  }
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  const std::vector<float> va = ToVector<float>(a);
  const std::vector<float> vb = ToVector<float>(b);
  return va.size() == vb.size() &&
         (va.empty() ||
          std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)) == 0);
}

TEST_F(AsyncTest, ClaimedMembersLeaveHusksThatAreNotHoles) {
  // Queue order: c0 d0 (h c)x20 h x107 d1. Chain C ([6,8]) anchors at the
  // front and claims its 20 members from between MatMul holes, leaving
  // husks in place. Chain D ([5], a hole for C) anchors next: between d0 and
  // d1 sit 127 holes and C's 20 husks. Husks are not holes, so d1 is within
  // the 128-hole bound and joins; counted as holes, they would put d1 past
  // it. Two gates hold the queue, so the runs do not depend on drain
  // timing: the first until every op is enqueued, the second (D's input)
  // after C's run, with C's husks still queued behind d0.
  constexpr int kChain = 20;
  const int trailing_holes =
      static_cast<int>(kernels::kMaxFusedRunSkips) - 1 - kChain;
  EagerContext* ctx = EagerContext::Global();
  std::vector<float> xv(48), yv(5), wv(64);
  for (size_t i = 0; i < xv.size(); ++i) xv[i] = 0.25f * i - 5.0f;
  for (size_t i = 0; i < yv.size(); ++i) yv[i] = 0.5f * i - 1.0f;
  for (size_t i = 0; i < wv.size(); ++i) wv[i] = 0.125f * (i % 9);
  const Tensor x = ops::constant<float>(xv, {6, 8});
  const Tensor y = ops::constant<float>(yv, {5});
  const Tensor w = ops::constant<float>(wv, {8, 8});
  const Tensor s = ops::scalar<float>(0.5f);
  auto program = [&](const Tensor& cx,
                     const Tensor& dy) -> std::vector<Tensor> {
    Tensor c = ops::neg(cx);
    Tensor d = ops::mul(dy, dy);
    Tensor hole;
    for (int i = 0; i < kChain; ++i) {
      hole = ops::matmul(w, w);
      c = i % 2 == 0 ? ops::relu(c) : ops::mul(c, s);
    }
    for (int i = 0; i < trailing_holes; ++i) hole = ops::matmul(w, w);
    d = ops::neg(d);
    return {c, d, hole};
  };
  ASSERT_TRUE(ctx->Sync().ok());

  profiler::Counter* candidates =
      profiler::Metrics().GetCounter("fusion.scan.candidates");
  profiler::Gauge* depth =
      profiler::Metrics().GetGauge("queue.depth." + ctx->HostCpu()->name());
  profiler::Start();
  (void)profiler::Collect();
  const uint64_t candidates_before = candidates->value();
  auto gate_c =
      TensorHandle::Pending(DType::kFloat32, x.shape(), ctx->HostCpu());
  auto gate_d =
      TensorHandle::Pending(DType::kFloat32, y.shape(), ctx->HostCpu());
  const std::vector<Tensor> async =
      program(Tensor::FromHandle(gate_c), Tensor::FromHandle(gate_d));
  gate_c->SetTensor(x, /*ready_ns=*/0);
  // C's run resolves its output; the drain then waits on d0's gate with
  // 1 + 2 * 20 + 107 + 1 nodes queued, 20 of them husks. One more enqueue
  // (a MatMul behind d1, a hole for D past the bound) sets the depth gauge
  // from the host thread while the husks are present.
  ASSERT_TRUE(async[0].pending_handle()->WaitReady().ok());
  const Tensor extra = ops::matmul(w, w);
  EXPECT_EQ(depth->value(), 1 + kChain + trailing_holes + 1 + 1)
      << "husks are not queued work";
  gate_d->SetTensor(y, /*ready_ns=*/0);
  ASSERT_TRUE(ctx->Sync().ok());
  std::vector<int64_t> runs;
  const uint32_t fused_run = profiler::Intern("fused_run");
  for (const profiler::CollectedEvent& e : profiler::Collect()) {
    if (e.event.kind == profiler::EventKind::kFusionRun &&
        e.event.name == fused_run) {
      runs.push_back(e.event.arg);
    }
  }
  profiler::Stop();

  EXPECT_EQ(runs, (std::vector<int64_t>{kChain + 1, 2}));
  // C's scan reaches its anchor, d0, 20 holes and 20 members between them
  // and 107 more holes (the bound); D's reaches its anchor, 127 holes, d1
  // and the extra MatMul (the bound); each of the 128 MatMuls is then a
  // front that anchors nothing.
  EXPECT_EQ(candidates->value() - candidates_before,
            (1 + 1 + 2 * kChain + trailing_holes) + (1 + 127 + 1 + 1) + 128);
  EXPECT_EQ(depth->value(), 0) << "husks are not queued work";

  ctx->set_async(false);
  const std::vector<Tensor> sync = program(x, y);
  ASSERT_EQ(async.size(), sync.size());
  for (size_t i = 0; i < sync.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(async[i], sync[i])) << "output " << i;
  }
  EXPECT_TRUE(BitwiseEqual(extra, ops::matmul(w, w)));
}

TEST_F(AsyncTest, CrossDeviceChainParksAndResumes) {
  // cpu -> gpu -> cpu -> gpu: each hop makes one queue wait on a handle the
  // other queue resolves, exercising the continuation-style park/re-arm path.
  Tensor x = ops::constant<float>({1, 2, 3, 4}, {2, 2});
  Tensor g1, c1, g2;
  {
    DeviceScope gpu("/gpu:0");
    g1 = ops::add(x, x);
  }
  {
    DeviceScope cpu("/cpu:0");
    c1 = ops::mul(g1, g1);
  }
  {
    DeviceScope gpu("/gpu:0");
    g2 = ops::sub(c1, x);
  }
  EXPECT_EQ(ToVector<float>(g2), (std::vector<float>{3, 14, 33, 60}));
}

TEST_F(AsyncTest, DeferredErrorReachesDownstreamHandles) {
  Tensor params = ops::constant<float>({10, 20, 30}, {3});
  Tensor bad_index = ops::constant<int64_t>({5}, {1});
  // Shape inference accepts this call (output shape [1] is known), so the
  // kernel-time OutOfRange is discovered after dispatch has returned.
  Tensor bad = ops::gather(params, bad_index);
  Tensor down1 = ops::add(bad, bad);
  Tensor down2 = ops::mul(down1, down1);  // two ops downstream of the failure

  Status status = down2.Materialize();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);
  EXPECT_NE(status.message().find("Gather index out of range"),
            std::string::npos)
      << status.message();
}

TEST_F(AsyncTest, SyncSurfacesErrorOnceAndContextStaysUsable) {
  Tensor params = ops::constant<float>({10, 20, 30}, {3});
  Tensor bad = ops::gather(params, ops::constant<int64_t>({7}, {1}));
  (void)bad;
  Status first = EagerContext::Global()->Sync();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), ErrorCode::kOutOfRange);
  // The error was consumed; the context is reusable.
  EXPECT_TRUE(EagerContext::Global()->Sync().ok());
  Tensor ok = ops::add(params, params);
  EXPECT_EQ(ToVector<float>(ok), (std::vector<float>{20, 40, 60}));
}

TEST_F(AsyncTest, PoisonedInputToSyncPointThrowsOriginalStatus) {
  Tensor params = ops::constant<float>({1, 2}, {2});
  Tensor bad = ops::gather(params, ops::constant<int64_t>({9}, {1}));
  // A staged call materializes its arguments (sync point); the original
  // kernel Status surfaces there as this call's error.
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], args[0])};
      },
      "async_poisoned_arg");
  EXPECT_THROW(f({bad}), RuntimeError);
  (void)EagerContext::Global()->Sync();  // clear the noted error
}

TEST_F(AsyncTest, DroppedPendingTensorsDrainCleanly) {
  for (int i = 0; i < 100; ++i) {
    Tensor t = ops::add(ops::constant<float>({1.0f * i}, {1}),
                        ops::scalar<float>(1));
    // `t` is dropped while possibly still pending; the queue node keeps the
    // handle alive until the op retires.
  }
  EXPECT_TRUE(EagerContext::Global()->Sync().ok());
}

TEST_F(AsyncTest, SetAsyncFalseIsASyncPoint) {
  Tensor a = ops::constant<float>({2, 3}, {2});
  Tensor b = ops::mul(a, a);
  EagerContext::Global()->set_async(false);
  // Disabling async drained the queues: the handle must be resolved.
  ASSERT_NE(b.pending_handle(), nullptr);
  EXPECT_TRUE(b.pending_handle()->resolved());
  EXPECT_EQ(ToVector<float>(b), (std::vector<float>{4, 9}));
}

TEST_F(AsyncTest, VariableInitIsASyncPoint) {
  Tensor params = ops::constant<float>({10, 20, 30}, {3});
  Tensor bad = ops::gather(params, ops::constant<int64_t>({9}, {1}));
  Tensor poisoned = ops::add(bad, bad);
  // Variable state is long-lived and shared: initialization must surface the
  // original deferred Status rather than storing a poisoned value.
  EXPECT_THROW(Variable v(poisoned), RuntimeError);
  (void)EagerContext::Global()->Sync();  // clear the noted error
  Variable ok(ops::constant<float>({1, 2}, {2}));
  EXPECT_TRUE(ok.defined());
}

TEST_F(AsyncTest, TapeGradientIsASyncPoint) {
  Tensor x = ops::constant<float>({1, 2, 3}, {3});
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::reduce_sum(ops::mul(x, x));
  auto grads = tape.gradient(y, {x});
  ASSERT_TRUE(grads.ok());
  EXPECT_EQ(ToVector<float>((*grads)[0]), (std::vector<float>{2, 4, 6}));
}

TEST_F(AsyncTest, GradientOfPoisonedTargetReturnsOriginalStatus) {
  Tensor x = ops::constant<float>({1, 2, 3}, {3});
  GradientTape tape;
  tape.watch(x);
  Tensor y = ops::gather(x, ops::constant<int64_t>({11}, {1}));
  auto grads = tape.gradient(y, {x});
  ASSERT_FALSE(grads.ok());
  EXPECT_EQ(grads.status().code(), ErrorCode::kOutOfRange);
  (void)EagerContext::Global()->Sync();
}

TEST_F(AsyncTest, StagedCallMaterializesPendingArguments) {
  Tensor x = ops::constant<float>({1, 2, 3, 4}, {2, 2});
  Tensor pending = ops::add(x, x);  // future-backed argument
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::matmul(args[0], args[0])};
      },
      "async_staged_arg");
  std::vector<Tensor> out = f({pending});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(ToVector<float>(out[0]),
            (std::vector<float>{28, 40, 60, 88}));
}

TEST_F(AsyncTest, AsyncOverlapBeatsSynchronousVirtualTime) {
  // A dispatch-bound chain on a synchronous timing-only device: sync mode
  // pays dispatch + kernel per op, async mode overlaps the kernel with the
  // next op's dispatch. Deterministic in virtual time.
  EagerContext* ctx = EagerContext::Global();
  DeviceNameParts parts;
  parts.kind = DeviceKind::kGpu;
  parts.index = 7;
  DeviceCostParams params;
  params.flops_per_second = 1e18;  // roofline ~ 0: launch cost dominates
  params.bytes_per_second = 1e18;
  params.kernel_launch_ns = 20'000;
  ASSERT_TRUE(ctx->devices()
                  .AddDevice(std::make_unique<Device>(
                      parts, params, /*executes_kernels=*/false,
                      /*synchronous=*/true))
                  .ok());
  constexpr int kOps = 128;
  auto run_chain = [&] {
    DeviceScope device("/gpu:7");
    Tensor h = ops::constant<float>({1, 2, 3, 4}, {2, 2});
    for (int i = 0; i < kOps; ++i) h = ops::add(h, h);
  };
  ctx->set_host_profile(HostProfile::Python());  // fixture TearDown restores

  ctx->set_async(false);
  ctx->ResetVirtualTime();
  run_chain();
  uint64_t sync_ns = ctx->SyncAllDevices();

  ctx->set_async(true);
  ctx->ResetVirtualTime();
  run_chain();
  uint64_t async_ns = ctx->SyncAllDevices();

  // 25us dispatch + 20us kernel serialized vs. overlapped: ~1.8x.
  EXPECT_GE(static_cast<double>(sync_ns) / static_cast<double>(async_ns), 1.5)
      << "sync " << sync_ns << "ns vs async " << async_ns << "ns";
}

}  // namespace
}  // namespace tfe
