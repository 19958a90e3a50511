#include "kernels/program_cache.h"

#include <utility>

#include "profiler/metrics.h"
#include "profiler/profiler.h"

namespace tfe {
namespace kernels {

namespace {

// Appends `v` as a LEB128 varint: self-delimiting, and one byte for the
// small counts, ranks and indices that make up most of a key.
void Put(uint64_t v, std::string* key) {
  for (; v >= 0x80; v >>= 7) key->push_back(static_cast<char>(v | 0x80));
  key->push_back(static_cast<char>(v));
}

// A signed value (a dim, perm entry or axis), zigzag-mapped so small
// negative values stay short.
void PutSigned(int64_t v, std::string* key) {
  Put((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63), key);
}

void PutShape(const Shape& shape, std::string* key) {
  Put(static_cast<uint64_t>(shape.rank()), key);
  for (int64_t d : shape.dims()) PutSigned(d, key);
}

// The packed signature of a candidate run: every field CompileFusedRun's
// output depends on, nothing else (tensor *contents* never matter). Values
// are self-delimiting varints and each variable-length list is preceded by
// its length, so the encoding is injective.
void EncodeKey(const std::vector<FusedRunOp>& ops,
               const std::vector<FusedRunOperand>& operands, DType run_dtype,
               std::string* key) {
  Put(static_cast<uint64_t>(run_dtype), key);
  Put(ops.size(), key);
  Put(operands.size(), key);
  for (const FusedRunOp& op : ops) {
    Put(reinterpret_cast<uintptr_t>(op.op), key);
    Put(static_cast<uint64_t>(op.dtype) << 1 | uint64_t{op.materialize}, key);
    PutShape(op.shape, key);
    // A producer reference is even, an operand reference odd.
    Put(op.args.size(), key);
    for (const FusedRunArg& arg : op.args) {
      Put(arg.producer >= 0 ? static_cast<uint64_t>(arg.producer) << 1
                            : static_cast<uint64_t>(arg.operand) << 1 | 1,
          key);
    }
    Put(op.perm.size(), key);
    for (int64_t p : op.perm) PutSigned(p, key);
    Put(op.axes.size(), key);
    for (int64_t a : op.axes) PutSigned(a, key);
  }
  for (const FusedRunOperand& od : operands) {
    Put(static_cast<uint64_t>(od.dtype) << 1 | uint64_t{od.may_donate}, key);
    PutShape(od.shape, key);
  }
}

}  // namespace

FusedProgramCache::FusedProgramCache(size_t capacity) : capacity_(capacity) {}

FusedProgramCache& FusedProgramCache::Global() {
  static FusedProgramCache* cache = new FusedProgramCache();
  return *cache;
}

std::shared_ptr<const FusedProgram> FusedProgramCache::GetOrCompile(
    const std::vector<FusedRunOp>& ops,
    const std::vector<FusedRunOperand>& operands, DType run_dtype) {
  static profiler::Counter* hit_counter =
      profiler::Metrics().GetCounter("fusion.program_cache.hit");
  static profiler::Counter* miss_counter =
      profiler::Metrics().GetCounter("fusion.program_cache.miss");
  static profiler::Counter* evict_counter =
      profiler::Metrics().GetCounter("fusion.program_cache.evict");
  static const uint32_t hit_name_id = profiler::Intern("program_cache_hit");

  // Reused across lookups: a lookup allocates nothing once it has grown.
  thread_local std::string key;
  key.clear();
  EncodeKey(ops, operands, run_dtype, &key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      hit_counter->Increment();
      profiler::RecordInstant(profiler::EventKind::kFusionRun, hit_name_id,
                              static_cast<int64_t>(ops.size()));
      return it->second->program;
    }
    ++misses_;
    miss_counter->Increment();
  }

  // Compile outside the lock: trial compilation walks the whole segment and
  // must not serialize concurrent drains. Two threads may race to compile
  // the same key; the second insert finds the entry present and returns it
  // instead of its own, which is equivalent (compilation is deterministic).
  auto program = std::make_shared<FusedProgram>();
  StatusOr<CompiledRun> compiled = CompileFusedRun(ops, operands, run_dtype);
  if (compiled.ok()) {
    program->run = std::move(compiled).value();
  } else {
    program->status = compiled.status();
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second->program;
  lru_.push_front(Entry{key, program});
  index_.emplace(lru_.front().key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    evict_counter->Increment();
  }
  return program;
}

void FusedProgramCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
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
