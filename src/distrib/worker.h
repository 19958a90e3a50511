// WorkerServer: one remote host in the simulated cluster (paper §4.5).
//
// Each worker runs its own EagerContext (its own devices, function library
// and RNG) on a dedicated service thread, and communicates with the main
// program through a message queue — the in-process stand-in for the gRPC
// transport (DESIGN.md §2 documents this substitution). It serves the
// pending-handle protocol behind RemoteDevice (through WorkerBackend): run
// an op — a staged function is the `Call` op, whose bundle registers first —
// move a tensor in or out of its store, and drop a store entry. Only Fetch
// waits; every other request returns at once. The client pre-assigns store
// ids for the outputs and continues immediately; a completion callback
// delivers metadata (or the error) when the service thread retires the
// request. Because the service queue is processed in submission order, a
// consumer may reference a producer's pre-assigned ids before the producer
// has executed.
//
// Shutdown() models worker failure: queued requests complete with
// Unavailable, and later submissions fail the same way instead of crashing —
// the errors ride the usual poisoned-handle path to the client's next sync
// point.
#ifndef TFE_DISTRIB_WORKER_H_
#define TFE_DISTRIB_WORKER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "device/remote_device.h"
#include "runtime/eager_context.h"
#include "support/status.h"

namespace tfe {

class WorkerServer {
 public:
  struct Options {
    std::string job = "worker";
    int task = 0;
    bool with_sim_gpu = false;
    uint64_t random_seed = 99;
  };

  using DoneFn = RemoteBackend::DoneFn;

  explicit WorkerServer(const Options& options);
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  const std::string& job() const { return options_.job; }
  int task() const { return options_.task; }

  // Device names this worker contributes to the cluster pool.
  std::vector<std::string> DeviceNames() const;

  // Stops the service thread. Requests still queued — and any submitted
  // later — complete with Unavailable (the simulated-failure path). Safe to
  // call more than once.
  void Shutdown();

  // Copies a stored tensor back to the client (blocking).
  StatusOr<Tensor> Fetch(int64_t handle_id);

  // ---- pending-handle RPCs (never block the caller) -----------------------

  // Runs one op, storing the outputs under the client-assigned `output_ids`
  // (when empty, the worker allocates ids itself). A `Call` carrying a
  // `serialized_function` attr registers the bundle's functions first
  // (idempotent; the client attaches the bundle to a function's first call
  // only, and later calls resolve the name against this worker's library).
  // `done` fires on the service thread with the output metadata, or with the
  // op's error — or inline with Unavailable when the worker is already shut
  // down.
  void RunOpAsync(const std::string& device, const std::string& op_name,
                  std::vector<int64_t> input_ids, AttrMap attrs,
                  std::vector<int64_t> output_ids, DoneFn done);

  // Stores a shipped tensor under the client-assigned id. Writes directly
  // (the client invokes it before the op that consumes the id, and the
  // store is a map under its own lock), so it cannot fail late: a lost put
  // surfaces as NotFound on the consuming op.
  void PutAsync(Tensor tensor, int64_t dst_id);

  // Drops a store entry after every previously submitted request — the
  // delete rides the service queue so it cannot outrun the op that still
  // reads the id. Unknown ids and shut-down workers are ignored.
  void DeleteAsync(int64_t handle_id);

 private:
  // A queued request: runs on the service thread with OK, or wherever the
  // queue is being failed (shutdown drain / post-shutdown submission) with
  // the reason — each request routes a non-OK status to its caller.
  using Request = std::function<void(const Status&)>;

  // Enqueues `fn` and returns immediately; the service thread runs it in
  // arrival order. When shut down, runs `fn` inline with Unavailable.
  void CallAsync(Request fn);
  void ServiceLoop();
  Status ShutdownStatus() const;

  // Runs on the service thread: registers a shipped function bundle, looks
  // up the inputs, runs the op, and stores its outputs.
  StatusOr<std::vector<RemoteOutputMeta>> ExecuteOp(
      const std::string& device, const std::string& op_name,
      const std::vector<int64_t>& input_ids, AttrMap attrs,
      const std::vector<int64_t>& output_ids);
  Status LookUpInputs(const std::vector<int64_t>& input_ids,
                      std::vector<Tensor>* inputs);
  std::vector<RemoteOutputMeta> StoreOutputs(
      std::vector<Tensor> outputs, const std::vector<int64_t>& output_ids);

  Options options_;
  std::unique_ptr<EagerContext> ctx_;

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<Request> queue_;
  bool shutdown_ = false;
  std::thread service_thread_;

  std::mutex store_mu_;
  std::map<int64_t, Tensor> store_;
  // Worker-allocated ids count up from 1; client-assigned ids live at and
  // above RemoteBackend's base (1 << 40), so the allocators never collide.
  int64_t next_handle_ = 1;
};

}  // namespace tfe

#endif  // TFE_DISTRIB_WORKER_H_
