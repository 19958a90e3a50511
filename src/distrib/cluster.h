// Cluster: the main program's view of distributed execution (paper §4.5).
//
// "The current system supports distributed execution with a single central
// server running the main program and several worker servers running on
// remote hosts. Each worker server adds its locally available devices to the
// pool of devices available to the main program." Remote devices are
// addressed by application-level names ("/job:training/task:2/device:GPU:0");
// the cluster maps them to worker instances — the analog of mapping names to
// DNS addresses when a real server joins. Connect makes each worker device a
// RemoteDevice of an EagerContext; all remote work then goes through
// ordinary dispatch under a `tfe::device` scope.
#ifndef TFE_DISTRIB_CLUSTER_H_
#define TFE_DISTRIB_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "distrib/remote_backend.h"
#include "distrib/worker.h"

namespace tfe {

class Cluster {
 public:
  struct Options {
    // job name -> number of tasks.
    std::map<std::string, int> jobs = {{"worker", 2}};
    bool workers_have_sim_gpu = false;
  };

  explicit Cluster(const Options& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // All remote device names in the pool.
  std::vector<std::string> ListRemoteDevices() const;

  // Registers every worker device in `ctx`'s DeviceManager as a first-class
  // RemoteDevice (paper §4.5: workers "add their locally available devices
  // to the pool of devices available to the main program"). Afterwards
  // `tfe::device("/job:worker/task:1/device:CPU:0")` scopes ops with the
  // same syntax as local execution: they flow through the ordinary
  // dispatch -> OpQueue path, return pending handles immediately, and their
  // values stay on the worker until read. Fails if a device of the same
  // canonical name is already registered (e.g. a second Connect into the
  // same context).
  Status Connect(EagerContext* ctx);

  // Simulates the failure of one worker: its service thread stops, queued
  // requests and all later RPCs complete with Unavailable. In-flight remote
  // ops surface the error as poisoned handles at the client's next sync
  // point — no crash, no hang.
  Status ShutdownWorker(const std::string& job, int task);

 private:
  std::vector<std::unique_ptr<WorkerServer>> workers_;
  // One transport per worker, shared by that worker's RemoteDevices (created
  // on Connect). shared_ptr: registered devices may outlive the Cluster —
  // the destructor disconnects the backends, turning later dispatches into
  // deferred Unavailable errors instead of dangling pointers.
  std::vector<std::shared_ptr<WorkerBackend>> backends_;
};

}  // namespace tfe

#endif  // TFE_DISTRIB_CLUSTER_H_
