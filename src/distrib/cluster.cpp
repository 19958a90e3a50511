#include "distrib/cluster.h"

#include "runtime/eager_context.h"
#include "support/strings.h"

namespace tfe {

Cluster::Cluster(const Options& options) {
  uint64_t seed = 1000;
  for (const auto& [job, tasks] : options.jobs) {
    for (int task = 0; task < tasks; ++task) {
      WorkerServer::Options worker_options;
      worker_options.job = job;
      worker_options.task = task;
      worker_options.with_sim_gpu = options.workers_have_sim_gpu;
      worker_options.random_seed = seed++;
      workers_.push_back(std::make_unique<WorkerServer>(worker_options));
    }
  }
}

Cluster::~Cluster() {
  // Sever every backend before any worker dies: RemoteDevices registered in
  // a still-living EagerContext keep the backends alive by shared_ptr, and a
  // disconnected backend answers Unavailable instead of touching a freed
  // worker. Disconnect also waits out the calls (a drain thread's Put, say)
  // that reached a worker before it.
  for (auto& backend : backends_) backend->Disconnect();
}

Status Cluster::Connect(EagerContext* ctx) {
  TFE_CHECK(ctx != nullptr);
  for (const auto& worker : workers_) {
    auto backend = std::make_shared<WorkerBackend>(
        strings::StrCat("/job:", worker->job(), "/task:", worker->task()),
        worker.get());
    for (const std::string& name : worker->DeviceNames()) {
      TFE_ASSIGN_OR_RETURN(DeviceNameParts parts, ParseDeviceName(name));
      TFE_RETURN_IF_ERROR(
          ctx->devices()
              .AddDevice(std::make_unique<RemoteDevice>(parts, backend))
              .status());
    }
    backends_.push_back(std::move(backend));
  }
  return Status::OK();
}

Status Cluster::ShutdownWorker(const std::string& job, int task) {
  for (const auto& worker : workers_) {
    if (worker->job() == job && worker->task() == task) {
      worker->Shutdown();
      return Status::OK();
    }
  }
  return NotFound(strings::StrCat("No worker /job:", job, "/task:", task));
}

std::vector<std::string> Cluster::ListRemoteDevices() const {
  std::vector<std::string> names;
  for (const auto& worker : workers_) {
    for (const std::string& name : worker->DeviceNames()) {
      names.push_back(name);
    }
  }
  return names;
}

}  // namespace tfe
