#include "serving/batcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "profiler/profiler.h"

namespace tfe {
namespace serving {

DynamicBatcher::DynamicBatcher(Options options, Runner runner)
    : options_(options), runner_(std::move(runner)) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

DynamicBatcher::~DynamicBatcher() { Shutdown(); }

Status DynamicBatcher::Enqueue(PendingCall call) {
  call.enqueue_ns = profiler::NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return FailedPrecondition("DynamicBatcher is shut down");
    }
    if (!call.batchable || options_.max_batch_size <= 1) {
      immediate_.push_back(std::move(call));
    } else {
      Group& group = groups_[call.group_key];
      if (group.calls.empty()) group.oldest_ns = call.enqueue_ns;
      group.calls.push_back(std::move(call));
    }
  }
  cv_.notify_one();
  return Status::OK();
}

void DynamicBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // Already shut down; the worker (if any) was joined by the first call.
    }
    shutdown_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool DynamicBatcher::TakeReadyBatch(std::vector<PendingCall>* batch,
                                    bool force) {
  // Unbatchable calls first: they owe no window and should not queue behind
  // one. Dispatched one at a time so a slow singleton cannot poison-pill a
  // forming batch's latency budget more than necessary.
  if (!immediate_.empty()) {
    batch->push_back(std::move(immediate_.front()));
    immediate_.pop_front();
    return true;
  }
  const uint64_t now = profiler::NowNs();
  const uint64_t delay_ns =
      static_cast<uint64_t>(options_.max_queue_delay_us) * 1000;
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    Group& group = it->second;
    const bool full =
        group.calls.size() >= static_cast<size_t>(options_.max_batch_size);
    const bool expired = now - group.oldest_ns >= delay_ns;
    if (!full && !expired && !force) continue;
    const size_t take = std::min(group.calls.size(),
                                 static_cast<size_t>(options_.max_batch_size));
    batch->assign(std::make_move_iterator(group.calls.begin()),
                  std::make_move_iterator(group.calls.begin() + take));
    group.calls.erase(group.calls.begin(), group.calls.begin() + take);
    if (group.calls.empty()) {
      groups_.erase(it);
    } else {
      group.oldest_ns = group.calls.front().enqueue_ns;
    }
    return true;
  }
  return false;
}

void DynamicBatcher::WorkerLoop() {
  const auto delay = std::chrono::microseconds(options_.max_queue_delay_us);
  for (;;) {
    std::vector<PendingCall> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!TakeReadyBatch(&batch, shutdown_)) {
        if (shutdown_) return;  // drained
        if (groups_.empty()) {
          cv_.wait(lock);
        } else {
          // Sleep until the oldest window can expire; recheck on wakeup.
          uint64_t oldest = UINT64_MAX;
          for (const auto& [key, group] : groups_) {
            oldest = std::min(oldest, group.oldest_ns);
          }
          const uint64_t now = profiler::NowNs();
          const uint64_t deadline = oldest + static_cast<uint64_t>(
                                                 delay.count() * 1000);
          if (deadline <= now) continue;
          cv_.wait_for(lock, std::chrono::nanoseconds(deadline - now));
        }
      }
    }
    runner_(std::move(batch));
  }
}

}  // namespace serving
}  // namespace tfe
