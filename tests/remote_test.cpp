// Remote devices as first-class Devices (paper §4.5 unified with §5's async
// dispatch): ops scoped to a connected worker's device flow through the
// ordinary dispatch -> OpQueue path, return pending handles immediately, and
// resolve via the pending-handle RPC protocol. Failures — unknown device
// names, workers dying mid-flight, cross-worker transfers — surface as
// deferred poisoned-handle errors at the next sync point: no crash, no hang.
#include <gtest/gtest.h>

#include <vector>

#include "api/tfe.h"
#include "distrib/cluster.h"
#include "distrib/remote_backend.h"
#include "tensor/tensor_handle.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

constexpr char kTask0[] = "/job:worker/task:0/device:CPU:0";
constexpr char kTask1[] = "/job:worker/task:1/device:CPU:0";

// Each test connects a fresh cluster into a fresh global context; the
// teardown reset drops the RemoteDevice registrations before the next test.
class RemoteExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EagerContext::ResetGlobal(EagerContext::Options());
    cluster_ = std::make_unique<Cluster>(Cluster::Options{});
    ASSERT_TRUE(cluster_->Connect(EagerContext::Global()).ok());
  }
  void TearDown() override {
    cluster_.reset();
    EagerContext::ResetGlobal(EagerContext::Options());
  }

  std::unique_ptr<Cluster> cluster_;
};
using RemoteFailureTest = RemoteExecutionTest;

TEST_F(RemoteExecutionTest, DeviceScopeWithRemoteNameRunsOps) {
  // "The user uses the same syntax as for local devices but a remote device
  // name" — and gets a pending handle back without waiting for the worker.
  Tensor a = ops::constant<float>({1, 2}, {2});
  Tensor b = ops::constant<float>({10, 20}, {2});
  Tensor sum;
  {
    tfe::device scope(kTask1);
    sum = ops::add(a, b);
  }
  ASSERT_NE(sum.pending_handle(), nullptr);
  ASSERT_NE(sum.pending_handle()->remote_info(), nullptr);
  ASSERT_NE(sum.device(), nullptr);
  EXPECT_TRUE(sum.device()->IsRemote());
  EXPECT_EQ(sum.device()->name(), kTask1);
  // Metadata is known at dispatch time; the value fetches on first read.
  EXPECT_EQ(sum.dtype(), DType::kFloat32);
  EXPECT_EQ(sum.shape(), Shape({2}));
  EXPECT_EQ(ToVector<float>(sum), (std::vector<float>{11, 22}));
}

TEST_F(RemoteExecutionTest, ChainStaysRemoteAndPassesByStoreId) {
  // A dependent chain dispatched back-to-back: consumers reference producer
  // results by pre-assigned store id, so no intermediate value ever crosses
  // back to the client.
  Tensor x = ops::constant<float>({1, 2, 3, 4}, {4});
  Tensor h = x;
  {
    tfe::device scope(kTask0);
    for (int i = 0; i < 20; ++i) {
      h = ops::add(ops::mul(h, ops::scalar<float>(0.5f)), x);
    }
  }
  ASSERT_TRUE(EagerContext::Global()->Sync().ok());
  ASSERT_NE(h.device(), nullptr);
  EXPECT_TRUE(h.device()->IsRemote());
  std::vector<float> remote_values = ToVector<float>(h);

  // Same chain locally: values must agree.
  Tensor hs = x;
  for (int i = 0; i < 20; ++i) {
    hs = ops::add(ops::mul(hs, ops::scalar<float>(0.5f)), x);
  }
  std::vector<float> local_values = ToVector<float>(hs);
  ASSERT_EQ(remote_values.size(), local_values.size());
  for (size_t i = 0; i < local_values.size(); ++i) {
    EXPECT_NEAR(remote_values[i], local_values[i], 1e-5) << "element " << i;
  }
}

TEST_F(RemoteExecutionTest, UnscopedOpFollowsRemoteInput) {
  // Data attraction (paper §4.4 applied to §4.5): an op outside any scope
  // whose input lives remotely runs on that worker, so results stay remote.
  Tensor a = ops::constant<float>({3, 4}, {2});
  Tensor remote_sum;
  {
    tfe::device scope(kTask1);
    remote_sum = ops::add(a, a);
  }
  Tensor doubled = ops::mul(remote_sum, ops::scalar<float>(2.0f));
  ASSERT_NE(doubled.device(), nullptr);
  EXPECT_TRUE(doubled.device()->IsRemote());
  EXPECT_EQ(doubled.device()->name(), kTask1);
  EXPECT_EQ(ToVector<float>(doubled), (std::vector<float>{12, 16}));
}

TEST_F(RemoteExecutionTest, StagedFunctionRunsAsOneRemoteOp) {
  // A staged function under a remote scope ships its serialized graph once
  // and runs as a single remote op per call.
  Function f = function([](const std::vector<Tensor>& args) {
    Tensor prod = ops::matmul(args[0], args[1]);
    return std::vector<Tensor>{ops::add(prod, args[0])};
  });
  Tensor a = ops::constant<float>({1, 2, 3, 4}, {2, 2});
  Tensor b = ops::constant<float>({1, 0, 0, 1}, {2, 2});
  std::vector<float> expected = ToVector<float>(f({a, b})[0]);

  Tensor remote_result;
  {
    tfe::device scope(kTask1);
    remote_result = f({a, b})[0];
    // Second call: the function is already registered on the worker.
    remote_result = f({remote_result, b})[0];
  }
  ASSERT_NE(remote_result.device(), nullptr);
  EXPECT_TRUE(remote_result.device()->IsRemote());
  Tensor local_twice = f({f({a, b})[0], b})[0];
  EXPECT_EQ(ToVector<float>(remote_result), ToVector<float>(local_twice));
  (void)expected;
}

TEST_F(RemoteExecutionTest, ShapeUninferableCallWaitsForWorkerIds) {
  // A function whose signature leaves the output shape unknown cannot get
  // pending handles at dispatch: the call drains the queues, issues the same
  // RPC with worker-assigned ids, and waits. Its results still chain into
  // async remote ops, and a cross-worker input fails the same way.
  Function f = function([](const std::vector<Tensor>& args) {
    return std::vector<Tensor>{ops::add(ops::mul(args[0], args[0]), args[1])};
  });
  f.SetInputSignature({{DType::kFloat32, Shape({kUnknownDim, 3})},
                       {DType::kFloat32, Shape({kUnknownDim, 3})}});
  Tensor x = ops::constant<float>({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor called, doubled;
  {
    tfe::device scope(kTask0);
    Tensor pending = ops::add(x, x);
    called = f({pending, x})[0];
    doubled = ops::add(called, called);
  }
  ASSERT_NE(called.pending_handle(), nullptr);
  EXPECT_TRUE(called.pending_handle()->resolved());
  EXPECT_LT(called.pending_handle()->remote_info()->handle_id,
            WorkerBackend::kClientIdBase);
  EXPECT_EQ(called.shape(), Shape({2, 3}));
  EXPECT_EQ(ToVector<float>(doubled),
            (std::vector<float>{10, 36, 78, 136, 210, 300}));

  Tensor on_task1;
  {
    tfe::device scope(kTask1);
    on_task1 = ops::add(x, x);
  }
  tfe::device scope(kTask0);
  try {
    (void)f({on_task1, x});
    ADD_FAILURE() << "cross-worker input accepted";
  } catch (const RuntimeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST_F(RemoteExecutionTest, SyncDrainsRemoteQueues) {
  Tensor x = ops::constant<float>({2.0f}, {1});
  Tensor y;
  {
    tfe::device scope(kTask0);
    y = ops::mul(x, x);
  }
  ASSERT_TRUE(tfe::sync().ok());
  // After a sync every remote op has resolved (not merely been sent).
  ASSERT_NE(y.pending_handle(), nullptr);
  EXPECT_TRUE(y.pending_handle()->resolved());
  EXPECT_EQ(ToVector<float>(y), (std::vector<float>{4.0f}));
}

TEST_F(RemoteFailureTest, UnknownRemoteDeviceDefersToSyncPoint) {
  // An unknown worker name is not an eager throw: the op returns poisoned
  // outputs and the error surfaces at the next sync point, exactly like a
  // worker failing mid-op.
  Tensor a = ops::constant<float>({1, 2}, {2});
  Tensor b;
  {
    tfe::device scope("/job:worker/task:9/device:CPU:0");
    b = ops::add(a, a);
  }
  ASSERT_NE(b.pending_handle(), nullptr);
  Status status = EagerContext::Global()->Sync();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  // Sync cleared the deferred error; the context stays usable.
  EXPECT_TRUE(EagerContext::Global()->Sync().ok());
  EXPECT_EQ(ToVector<float>(ops::add(a, a)), (std::vector<float>{2, 4}));
}

TEST_F(RemoteFailureTest, WorkerShutdownPoisonsInFlightOps) {
  // Ops dispatched against a dead worker surface Unavailable at the next
  // sync point — no crash, no hang. The shutdown happens with a chain in
  // flight; everything the worker never got to is poisoned.
  Tensor x = ops::constant<float>({1.0f}, {1});
  Tensor h = x;
  {
    tfe::device scope(kTask1);
    for (int i = 0; i < 8; ++i) h = ops::add(h, x);
  }
  ASSERT_TRUE(cluster_->ShutdownWorker("worker", 1).ok());
  Tensor after;
  {
    tfe::device scope(kTask1);
    after = ops::add(h, x);
  }
  Status status = EagerContext::Global()->Sync();
  EXPECT_FALSE(status.ok()) << "post-shutdown op must fail";
  // Reading the poisoned value reports an error rather than blocking.
  ASSERT_NE(after.pending_handle(), nullptr);
  EXPECT_FALSE(after.pending_handle()->status().ok());
  // The context survives: local work continues after the failure.
  EXPECT_EQ(ToVector<float>(ops::add(x, x)), (std::vector<float>{2.0f}));
}

TEST_F(RemoteFailureTest, ShutdownWithOpsInFlightDoesNotHang) {
  // A long dependent chain racing a shutdown: whatever the exact cut point,
  // the sync must return and the process must not crash.
  Tensor x = ops::constant<float>({1.0f, 2.0f}, {2});
  Tensor h = x;
  {
    tfe::device scope(kTask0);
    for (int i = 0; i < 64; ++i) h = ops::add(h, x);
  }
  ASSERT_TRUE(cluster_->ShutdownWorker("worker", 0).ok());
  (void)EagerContext::Global()->Sync();  // must return, status depends on race
  SUCCEED();
}

TEST_F(RemoteFailureTest, TeardownWithTransfersInFlight) {
  // Every op of the chain takes a fresh local input, so the drain ships a
  // Put into the worker store per op. Destroying the cluster without a sync
  // must wait out calls already inside a worker before it dies; ops issued
  // later fail Unavailable and the sync still returns. The race needs a
  // drain thread inside a Put while an idle worker dies, so each round
  // tears down a fresh cluster after a chain of a different length.
  for (int round = 0; round < 16; ++round) {
    Tensor h = ops::constant<float>({1.0f, 2.0f}, {2});
    {
      tfe::device scope(kTask0);
      for (int i = 0; i <= 4 * round; ++i) {
        h = ops::add(h, ops::constant<float>({1.0f, 1.0f}, {2}));
      }
    }
    cluster_.reset();
    (void)EagerContext::Global()->Sync();  // status depends on the cut point
    ASSERT_NE(h.pending_handle(), nullptr);
    EXPECT_TRUE(h.pending_handle()->resolved());
    h = Tensor();  // handles must not outlive their context
    EagerContext::ResetGlobal(EagerContext::Options());
    cluster_ = std::make_unique<Cluster>(Cluster::Options{});
    ASSERT_TRUE(cluster_->Connect(EagerContext::Global()).ok());
  }
}

TEST_F(RemoteFailureTest, CrossWorkerInputPoisonsWithInvalidArgument) {
  // Tensors do not implicitly hop between workers (the paper's explicit-copy
  // model); the violation is a deferred InvalidArgument, not a crash.
  Tensor a = ops::constant<float>({5, 6}, {2});
  Tensor on_task0;
  {
    tfe::device scope(kTask0);
    on_task0 = ops::add(a, a);
  }
  Tensor cross;
  {
    tfe::device scope(kTask1);
    cross = ops::add(on_task0, a);
  }
  Status status = EagerContext::Global()->Sync();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  ASSERT_NE(cross.pending_handle(), nullptr);
  EXPECT_FALSE(cross.pending_handle()->status().ok());
}

TEST_F(RemoteFailureTest, PoisonPropagatesThroughDependentRemoteOps) {
  // A poisoned producer poisons its consumers with the *original* status.
  Tensor a = ops::constant<float>({1, 2}, {2});
  Tensor bad, downstream;
  {
    tfe::device scope("/job:worker/task:7/device:CPU:0");
    bad = ops::add(a, a);
  }
  {
    tfe::device scope(kTask0);
    downstream = ops::mul(bad, a);
  }
  Status status = EagerContext::Global()->Sync();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status.ToString();
  ASSERT_NE(downstream.pending_handle(), nullptr);
  EXPECT_FALSE(downstream.pending_handle()->status().ok());
}

TEST_F(RemoteExecutionTest, CopyToShipsLocalTensorToWorker) {
  // copy_to places a local value in a worker's store; ops scoped there
  // consume it by store id with no further transfer.
  Tensor local = ops::constant<float>({1, 2, 3}, {3});
  Tensor shipped = tfe::copy_to(local, kTask1);
  ASSERT_NE(shipped.pending_handle(), nullptr);
  ASSERT_NE(shipped.pending_handle()->remote_info(), nullptr);
  EXPECT_EQ(shipped.device()->name(), kTask1);
  Tensor doubled;
  {
    tfe::device scope(kTask1);
    doubled = ops::add(shipped, shipped);
  }
  EXPECT_EQ(ToVector<float>(doubled), (std::vector<float>{2, 4, 6}));
}

TEST_F(RemoteExecutionTest, CopyToBringsRemoteValueHome) {
  Tensor remote;
  {
    tfe::device scope(kTask0);
    remote = ops::mul(ops::constant<float>({2, 3}, {2}),
                      ops::constant<float>({10, 10}, {2}));
  }
  Tensor home = tfe::copy_to(remote, EagerContext::Global()->HostCpu());
  EXPECT_EQ(home.pending_handle(), nullptr);
  EXPECT_FALSE(home.device() != nullptr && home.device()->IsRemote());
  EXPECT_EQ(ToVector<float>(home), (std::vector<float>{20, 30}));
}

TEST_F(RemoteExecutionTest, CopyToMovesTensorBetweenWorkers) {
  // The explicit hop the cross-worker InvalidArgument directs users to:
  // fetch from task 0's store, re-put into task 1's, consume on task 1.
  Tensor a = ops::constant<float>({5, 6}, {2});
  Tensor on_task0;
  {
    tfe::device scope(kTask0);
    on_task0 = ops::add(a, a);
  }
  Tensor on_task1 = tfe::copy_to(on_task0, kTask1);
  ASSERT_NE(on_task1.pending_handle(), nullptr);
  ASSERT_NE(on_task1.pending_handle()->remote_info(), nullptr);
  EXPECT_EQ(on_task1.device()->name(), kTask1);
  Tensor cross;
  {
    tfe::device scope(kTask1);
    cross = ops::add(on_task1, a);
  }
  ASSERT_TRUE(EagerContext::Global()->Sync().ok());
  EXPECT_EQ(ToVector<float>(cross), (std::vector<float>{15, 18}));
}

TEST_F(RemoteExecutionTest, CopyToSameDeviceIsANoOp) {
  Tensor remote;
  {
    tfe::device scope(kTask1);
    remote = ops::add(ops::constant<float>({1, 1}, {2}),
                      ops::constant<float>({1, 1}, {2}));
  }
  Tensor same = tfe::copy_to(remote, kTask1);
  ASSERT_NE(same.pending_handle(), nullptr);
  ASSERT_NE(same.pending_handle()->remote_info(), nullptr);
  EXPECT_EQ(same.pending_handle()->remote_info()->handle_id,
            remote.pending_handle()->remote_info()->handle_id);
}

TEST_F(RemoteFailureTest, CopyToSurfacesPoisonedSourceStatus) {
  // Moving a poisoned tensor reports the original failure instead of
  // shipping garbage.
  Tensor bad;
  {
    tfe::device scope("/job:worker/task:9/device:CPU:0");
    bad = ops::add(ops::constant<float>({1}, {1}),
                   ops::constant<float>({1}, {1}));
  }
  auto moved = EagerContext::Global()->CopyTo(
      bad, EagerContext::Global()->devices().FindDevice(kTask0).value());
  EXPECT_FALSE(moved.ok());
  (void)EagerContext::Global()->Sync();  // clear the deferred error
}

}  // namespace
}  // namespace tfe
