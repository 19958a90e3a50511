#include "bench.h"

#include <algorithm>
#include <cstring>

#include "kernels/program_cache.h"

namespace perfbench {

void CreateContext() {
  tfe::EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  options.host_profile = tfe::HostProfile::Native();
  tfe::EagerContext::ResetGlobal(options);
}

void ClearProcessCaches() { tfe::kernels::FusedProgramCache::Global().Clear(); }

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snapshot;
  snapshot.counters = tfe::profiler::Metrics().Snapshot().counters;
  tfe::EagerContext::Stats& stats = tfe::EagerContext::Global()->stats();
  snapshot.eager_ops = stats.eager_ops.load();
  snapshot.executor_nodes = stats.executor_nodes.load();
  snapshot.fused_ops = stats.fused_ops.load();
  return snapshot;
}

uint64_t CounterSnapshot::Delta(const CounterSnapshot& after,
                                const std::string& name) const {
  auto value = [&name](const CounterSnapshot& s) -> uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(after) - value(*this);
}

}  // namespace perfbench
