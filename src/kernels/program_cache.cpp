#include "kernels/program_cache.h"

#include <utility>

#include "ops/op_def.h"
#include "profiler/metrics.h"
#include "profiler/profiler.h"
#include "staging/signature.h"
#include "support/strings.h"

namespace tfe {
namespace kernels {

FusedProgramCache::FusedProgramCache(size_t capacity) : capacity_(capacity) {}

FusedProgramCache& FusedProgramCache::Global() {
  static FusedProgramCache* cache = new FusedProgramCache();
  return *cache;
}

std::string FusedProgramCache::Key(const std::vector<FusedRunOp>& ops,
                                   const std::vector<FusedRunOperand>& operands,
                                   DType run_dtype) {
  std::string key = strings::StrCat("rt:", DTypeName(run_dtype), "|");
  for (const FusedRunOp& op : ops) {
    key += strings::StrCat(op.op->name, ":", TypeShapeKey(op.dtype, op.shape));
    for (const FusedRunArg& arg : op.args) {
      key += arg.producer >= 0 ? strings::StrCat(",p", arg.producer)
                               : strings::StrCat(",o", arg.operand);
    }
    for (int64_t p : op.perm) key += strings::StrCat(",t", p);
    for (int64_t a : op.axes) key += strings::StrCat(",x", a);
    if (op.materialize) key += ",m";
    key += ";";
  }
  key += "|";
  for (const FusedRunOperand& od : operands) {
    key += strings::StrCat(TypeShapeKey(od.dtype, od.shape),
                           od.may_donate ? "+" : "-", ";");
  }
  return key;
}

StatusOr<CompiledRun> FusedProgramCache::GetOrCompile(
    const std::vector<FusedRunOp>& ops,
    const std::vector<FusedRunOperand>& operands, DType run_dtype) {
  static profiler::Counter* hit_counter =
      profiler::Metrics().GetCounter("fusion.program_cache.hit");
  static profiler::Counter* miss_counter =
      profiler::Metrics().GetCounter("fusion.program_cache.miss");
  static profiler::Counter* evict_counter =
      profiler::Metrics().GetCounter("fusion.program_cache.evict");
  static const uint32_t hit_name_id = profiler::Intern("program_cache_hit");

  std::string key = Key(ops, operands, run_dtype);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      hit_counter->Increment();
      profiler::RecordInstant(profiler::EventKind::kFusionRun, hit_name_id,
                              static_cast<int64_t>(ops.size()));
      return it->second->result;
    }
    ++misses_;
    miss_counter->Increment();
  }

  // Compile outside the lock: trial compilation walks the whole segment and
  // must not serialize concurrent drains. Two threads may race to compile
  // the same key; the second insert finds the entry present and drops its
  // duplicate, which is correct (compilation is deterministic).
  StatusOr<CompiledRun> result = CompileFusedRun(ops, operands, run_dtype);

  std::lock_guard<std::mutex> lock(mu_);
  if (index_.find(key) == index_.end()) {
    lru_.push_front(Entry{key, result});
    index_.emplace(lru_.front().key, lru_.begin());
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
      evict_counter->Increment();
    }
  }
  return result;
}

void FusedProgramCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t FusedProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t FusedProgramCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t FusedProgramCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t FusedProgramCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace kernels
}  // namespace tfe
