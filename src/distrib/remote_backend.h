// WorkerBackend: the in-process RemoteBackend implementation — it binds a
// RemoteDevice registered in the client's DeviceManager to one WorkerServer's
// message queue (the gRPC stand-in). Cluster::Connect creates one per worker
// and shares it across that worker's devices.
//
// The backend may outlive its worker (RemoteDevices registered in a
// long-lived EagerContext hold it by shared_ptr while the Cluster that owns
// the worker dies first). Disconnect() severs the link: from then on every
// call completes inline with Unavailable — the same deferred poisoned-handle
// path a mid-flight worker failure takes — and it returns only once every
// call that reached the worker before it has returned, so the worker can be
// destroyed right after. Each call pins the worker by raising a count for
// its duration instead of holding a lock across it: calls nest (a
// completion callback that runs inline on a shut-down worker drops temp ids
// through this backend), and a waiting Disconnect must not stall them.
#ifndef TFE_DISTRIB_REMOTE_BACKEND_H_
#define TFE_DISTRIB_REMOTE_BACKEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "device/remote_device.h"
#include "distrib/worker.h"

namespace tfe {

class WorkerBackend : public RemoteBackend {
 public:
  // `worker` must stay valid until Disconnect() returns.
  WorkerBackend(std::string target, WorkerServer* worker);

  // Severs the link to the worker and waits out the calls still using it;
  // all later calls fail with Unavailable. Must not be called from inside a
  // backend call.
  void Disconnect();

  // ---- RemoteBackend --------------------------------------------------------
  const std::string& target() const override { return target_; }
  int64_t AllocateHandleId() override;
  Status Put(const Tensor& value, int64_t dst_id) override;
  void RunOpAsync(const std::string& device, const std::string& op,
                  std::vector<int64_t> input_ids, AttrMap attrs,
                  std::vector<int64_t> output_ids, DoneFn done) override;
  bool FunctionShipped(const std::string& name) override;
  void MarkFunctionShipped(const std::string& name) override;
  StatusOr<Tensor> Fetch(int64_t handle_id) override;
  void DeleteAsync(int64_t handle_id) override;

  // Client-assigned store ids start here; the worker's own allocator counts
  // up from 1, so the ranges never collide.
  static constexpr int64_t kClientIdBase = int64_t{1} << 40;

 private:
  // Pins the worker for the duration of one call; worker() is null once the
  // backend is disconnected.
  class Pin;

  Status Disconnected() const;

  const std::string target_;
  std::atomic<int64_t> next_id_{kClientIdBase};

  std::mutex mu_;
  std::condition_variable unpinned_cv_;
  WorkerServer* worker_;  // null once disconnected
  int pins_ = 0;          // calls currently holding a Pin

  // Function names already registered on the worker (ship-once protocol).
  std::mutex shipped_mu_;
  std::unordered_set<std::string> shipped_functions_;
};

}  // namespace tfe

#endif  // TFE_DISTRIB_REMOTE_BACKEND_H_
