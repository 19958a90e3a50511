// Distributed execution (paper §4.5): worker servers add their devices to
// the pool, and ops, staged functions and concurrent host threads reach them
// by remote device name under `tfe::device` scopes.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/tfe.h"
#include "device/remote_device.h"
#include "distrib/cluster.h"
#include "staging/control_flow.h"
#include "tensor/tensor_handle.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

constexpr char kTraining0[] = "/job:training/task:0/device:CPU:0";

Cluster::Options TwoWorkerOptions() {
  Cluster::Options options;
  options.jobs = {{"training", 2}};
  return options;
}

// Tests that run ops connect their cluster into a fresh global context; the
// teardown destroys the cluster before the context is reset.
class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { EagerContext::ResetGlobal(EagerContext::Options()); }
  void TearDown() override {
    cluster_.reset();
    EagerContext::ResetGlobal(EagerContext::Options());
  }

  void Connect(const Cluster::Options& options) {
    cluster_ = std::make_unique<Cluster>(options);
    ASSERT_TRUE(cluster_->Connect(EagerContext::Global()).ok());
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterTest, WorkersAddDevicesToThePool) {
  Cluster cluster(TwoWorkerOptions());
  std::vector<std::string> devices = cluster.ListRemoteDevices();
  ASSERT_GE(devices.size(), 2u);
  bool task0 = false, task1 = false;
  for (const std::string& name : devices) {
    if (name == "/job:training/task:0/device:CPU:0") task0 = true;
    if (name == "/job:training/task:1/device:CPU:0") task1 = true;
  }
  EXPECT_TRUE(task0);
  EXPECT_TRUE(task1);
}

TEST_F(ClusterTest, RemoteFunctionWithNestedCalleesAndCond) {
  // The shipped bundle must include nested Call and Cond callees.
  Connect(TwoWorkerOptions());
  Function inner = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::square(args[0])};
      },
      "remote_nested_inner");
  Function halve = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::mul(args[0], ops::fill(DType::kFloat32, {}, 0.5))};
      },
      "remote_halve");
  Function negate = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::neg(args[0])};
      },
      "remote_negate");
  Function outer = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor squared = inner({args[0]})[0];
        Tensor big = ops::greater(squared, ops::fill(DType::kFloat32, {}, 4.0));
        return ops::cond(big, halve, negate, {squared});
      },
      "remote_nested_outer");
  Tensor small = ops::scalar<float>(1.0f);
  Tensor large = ops::scalar<float>(10.0f);
  float expected_small = outer({small})[0].scalar<float>();  // -(1)
  float expected_large = outer({large})[0].scalar<float>();  // 50

  for (auto [input, expected] :
       {std::make_pair(small, expected_small),
        std::make_pair(large, expected_large)}) {
    Tensor remote_out;
    {
      tfe::device scope(kTraining0);
      remote_out = outer({input})[0];
    }
    ASSERT_NE(remote_out.device(), nullptr);
    EXPECT_EQ(remote_out.device()->name(), kTraining0);
    EXPECT_FLOAT_EQ(ToVector<float>(remote_out)[0], expected);
  }
}

TEST_F(ClusterTest, DeleteReleasesHandles) {
  // Dropping the last tensor of a remote value deletes its worker-store
  // entry. The delete rides the worker's in-order queue, so once a later op
  // on the same worker has synced, the entry is gone.
  Connect(TwoWorkerOptions());
  auto* remote = static_cast<RemoteDevice*>(
      EagerContext::Global()->devices().FindDevice(kTraining0).value());
  int64_t id = -1;
  {
    Tensor value;
    {
      tfe::device scope(kTraining0);
      value = ops::add(ops::scalar<float>(2), ops::scalar<float>(3));
    }
    ASSERT_TRUE(tfe::sync().ok());
    ASSERT_NE(value.pending_handle(), nullptr);
    ASSERT_NE(value.pending_handle()->remote_info(), nullptr);
    id = value.pending_handle()->remote_info()->handle_id;
    auto stored = remote->backend()->Fetch(id);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_FLOAT_EQ(stored->scalar<float>(), 5.0f);
  }
  Tensor later;
  {
    tfe::device scope(kTraining0);
    later = ops::add(ops::scalar<float>(1), ops::scalar<float>(1));
  }
  ASSERT_TRUE(tfe::sync().ok());
  auto gone = remote->backend()->Fetch(id);
  EXPECT_EQ(gone.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(ToVector<float>(later), (std::vector<float>{2}));
}

TEST_F(ClusterTest, ConcurrentClientsFromThreads) {
  // "developers need to start these computations concurrently, e.g. using
  // [host] threads." Each thread scopes its own worker.
  Connect(TwoWorkerOptions());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&failures, t] {
      const std::string device =
          "/job:training/task:" + std::to_string(t) + "/device:CPU:0";
      tfe::device scope(device);
      for (int i = 1; i <= 25; ++i) {
        Tensor x = tensor_util::Scalar<float>(i);
        Tensor squared = ops::mul(x, x);
        if (squared.device() == nullptr ||
            squared.device()->name() != device ||
            !squared.Materialize().ok() ||
            squared.scalar<float>() != i * i) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ClusterTest, MultipleJobs) {
  Cluster::Options options;
  options.jobs = {{"ps", 1}, {"worker", 2}};
  Connect(options);
  Tensor one = ops::scalar<float>(1);
  Tensor on_ps, on_worker, on_missing;
  {
    tfe::device scope("/job:ps/task:0/device:CPU:0");
    on_ps = ops::add(one, one);
  }
  {
    tfe::device scope("/job:worker/task:1/device:CPU:0");
    on_worker = ops::add(one, one);
  }
  {
    // No such task: a deferred error, not a throw.
    tfe::device scope("/job:worker/task:2/device:CPU:0");
    on_missing = ops::add(one, one);
  }
  Status status = EagerContext::Global()->Sync();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status.ToString();
  ASSERT_NE(on_missing.pending_handle(), nullptr);
  EXPECT_FALSE(on_missing.pending_handle()->status().ok());
  EXPECT_EQ(on_ps.device()->name(), "/job:ps/task:0/device:CPU:0");
  EXPECT_EQ(on_worker.device()->name(), "/job:worker/task:1/device:CPU:0");
  EXPECT_EQ(ToVector<float>(on_ps), (std::vector<float>{2}));
  EXPECT_EQ(ToVector<float>(on_worker), (std::vector<float>{2}));
}

}  // namespace
}  // namespace tfe
