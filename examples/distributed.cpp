// Distributed execution (paper §4.5): a two-worker cluster whose devices
// join the pool, remote ops under `tfe::device` scopes whose results stay
// remote until read, an explicit copy between workers, a staged function
// shipped to a worker, and concurrent computations from host threads.
// Exits non-zero if the loss computed on the worker differs from the local
// one.
//
//   build/examples/example_distributed
#include <cmath>
#include <cstdio>
#include <thread>

#include "api/tfe.h"
#include "distrib/cluster.h"

using tfe::Tensor;
namespace ops = tfe::ops;

int main() {
  tfe::Cluster::Options options;
  options.jobs = {{"training", 2}};
  tfe::Cluster cluster(options);
  cluster.Connect(tfe::EagerContext::Global()).ThrowIfError();

  std::printf("== remote device pool ==\n");
  for (const std::string& name : cluster.ListRemoteDevices()) {
    std::printf("  %s\n", name.c_str());
  }

  // Same syntax as local execution, but with a remote device name.
  const std::string task0 = "/job:training/task:0/device:CPU:0";
  const std::string task1 = "/job:training/task:1/device:CPU:0";
  Tensor weights = ops::random_normal({4, 4}, 0, 1, /*seed=*/3);
  Tensor activations = ops::random_normal({4, 4}, 0, 1, /*seed=*/4);
  Tensor product;
  {
    tfe::device scope(task1);
    product = ops::matmul(weights, activations);
  }
  std::printf("\nMatMul ran on %s; the result stays there until read\n",
              product.device()->name().c_str());

  // Reading the value copies it to the central server.
  std::printf("read on client: %s\n",
              tfe::tensor_util::ToString(product, 4).c_str());

  // Tensors never hop between workers implicitly; copy_to moves one.
  Tensor moved = tfe::copy_to(product, task0);
  Tensor doubled;
  {
    tfe::device scope(task0);
    doubled = ops::add(moved, moved);
  }
  std::printf("copied to %s and doubled there: %s\n",
              doubled.device()->name().c_str(),
              tfe::tensor_util::ToString(doubled, 4).c_str());

  // A staged function called under a remote scope ships its graph to the
  // worker once and runs there as one op (§4.3/§4.5).
  tfe::Function loss_fn = tfe::function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor err = ops::sub(ops::matmul(args[0], args[1]), args[1]);
        return {ops::reduce_mean(ops::square(err))};
      },
      "remote_loss");
  Tensor w = ops::random_normal({4, 4}, 0, 0.5, /*seed=*/5);
  Tensor x = ops::random_normal({4, 4}, 0, 0.5, /*seed=*/6);
  const float local_value = loss_fn({w, x})[0].scalar<float>();
  Tensor remote_loss;
  {
    tfe::device scope(task1);
    remote_loss = loss_fn({w, x})[0];
  }
  const float remote_value = remote_loss.scalar<float>();
  const bool match = std::abs(local_value - remote_value) < 1e-6f;
  std::printf("\nloss computed locally: %.6f, on worker: %.6f (match: %s)\n",
              local_value, remote_value, match ? "yes" : "NO");

  // Concurrent computations on different workers from host threads (§4.5):
  // each thread scopes its own worker.
  std::printf("\n== concurrent data-parallel shards ==\n");
  std::vector<float> shard_sums(2);
  std::vector<std::thread> threads;
  for (int task = 0; task < 2; ++task) {
    threads.emplace_back([&shard_sums, task] {
      Tensor shard = ops::random_normal({64}, 1.0, 0.1, /*seed=*/10 + task);
      tfe::device scope("/job:training/task:" + std::to_string(task) +
                        "/device:CPU:0");
      // Square and reduce on the worker; only the scalar comes back.
      Tensor total = ops::reduce_sum(ops::mul(shard, shard));
      shard_sums[task] = total.scalar<float>();
    });
  }
  for (auto& thread : threads) thread.join();
  std::printf("shard 0 sum(x^2) = %.2f (on task 0)\n", shard_sums[0]);
  std::printf("shard 1 sum(x^2) = %.2f (on task 1)\n", shard_sums[1]);
  std::printf("combined on client = %.2f\n", shard_sums[0] + shard_sums[1]);
  return match ? 0 : 1;
}
