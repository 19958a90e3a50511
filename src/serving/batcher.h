// Dynamic batcher: the coalescing layer of the serving subsystem.
//
// Concurrent sessions submit staged-function calls; calls that share a
// group key (same Function object, same concrete trace, same input
// signature — so identical shapes, dtypes, resource bindings, and
// non-tensor arguments) are collected into a window and handed to the
// runner as one batch once the window fills (max_batch_size) or the oldest
// call has waited max_queue_delay_us. Calls marked unbatchable bypass the
// window and dispatch immediately as singleton batches, so they pay no
// queueing delay.
//
// The batcher is a pure queueing state machine: it never looks inside a
// call. Execution (concat / run / split / future resolution) lives in the
// runner the owner supplies — see serving.h.
#ifndef TFE_SERVING_BATCHER_H_
#define TFE_SERVING_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ops/attr_value.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

class Function;
class GraphFunction;
class TensorHandle;

namespace serving {

class Workspace;

// One staged-function call queued for (possibly batched) execution.
// Everything the runner needs travels with the call; the batcher itself
// only reads group_key / batchable / enqueue_ns.
struct PendingCall {
  int64_t session_id = -1;
  // The staged function and the concrete trace the submitting arguments
  // selected. `fn` must outlive the serving instance (it is re-entered to
  // trace the batched shape).
  Function* fn = nullptr;
  std::shared_ptr<GraphFunction> concrete;
  std::shared_ptr<Workspace> workspace;
  // Explicit arguments exactly as submitted (may be pending futures; the
  // runner materializes them per-call so one poisoned input fails only its
  // own session).
  std::vector<Tensor> args;
  AttrMap non_tensor_args;
  // Pre-created output futures, resolved by the runner.
  std::vector<std::shared_ptr<TensorHandle>> outputs;
  // Philox substream reserved for this call at submit time (satellite: a
  // session's sampled values cannot depend on who else is in the batch).
  uint64_t rng_stream = 0;
  // Leading (example) dimension shared by every tensor argument.
  int64_t rows = 0;
  bool batchable = false;
  std::string group_key;
  uint64_t enqueue_ns = 0;  // profiler::NowNs() at submit
};

class DynamicBatcher {
 public:
  struct Options {
    int max_batch_size = 8;
    int max_queue_delay_us = 200;
  };
  // The runner receives batches whose calls all share one group_key
  // (singletons for unbatchable calls). Runs on the batcher thread.
  using Runner = std::function<void(std::vector<PendingCall>)>;

  DynamicBatcher(Options options, Runner runner);
  ~DynamicBatcher();

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  // Queues a call. Unbatchable calls (or max_batch_size <= 1) dispatch on
  // the next worker wakeup without waiting for the window.
  // FailedPrecondition after Shutdown().
  Status Enqueue(PendingCall call);

  // Stops intake, drains every queued call through the runner (partial
  // windows flush immediately), and joins the worker. Idempotent.
  void Shutdown();

  const Options& options() const { return options_; }

 private:
  struct Group {
    std::vector<PendingCall> calls;
    uint64_t oldest_ns = 0;
  };

  void WorkerLoop();
  // Pops the next ready batch under mu_. `force` flushes partial windows.
  bool TakeReadyBatch(std::vector<PendingCall>* batch, bool force);

  const Options options_;
  const Runner runner_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, Group> groups_;
  std::deque<PendingCall> immediate_;
  bool shutdown_ = false;
  std::thread worker_;
};

}  // namespace serving
}  // namespace tfe

#endif  // TFE_SERVING_BATCHER_H_
