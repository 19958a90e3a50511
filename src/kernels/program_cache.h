// The compiled-program cache behind fused DAG execution (LazyTensor's
// "compiler cache keyed on trace hash", arXiv 2102.13267, applied to our
// MicroProgram compiler).
//
// Both fusion frontends recognize the same DAG segment on every training
// step; only its shapes and dtypes matter to CompileFusedRun, so the cache
// key is the segment's shape/dtype signature — built from the same
// TypeShapeKey atom the trace cache uses (staging/signature.h) plus the
// run's wiring (op names, producer/operand argument references, layout
// perms, reduction axes, materialization and donation bits). Steady-state
// steps fetch the compiled artifact instead of re-running trial compilation.
//
// Failed compilations are cached too: a segment the compiler rejects is
// rejected identically every step, and the drain must learn that without
// paying the compile walk each time.
//
// Eviction is LRU with a fixed entry cap. Counters
// fusion.program_cache.{hit,miss,evict} and a program_cache_hit trace
// instant surface behavior through the profiler registry.
#ifndef TFE_KERNELS_PROGRAM_CACHE_H_
#define TFE_KERNELS_PROGRAM_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernels/fused_elementwise.h"
#include "support/status.h"

namespace tfe {
namespace kernels {

class FusedProgramCache {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit FusedProgramCache(size_t capacity = kDefaultCapacity);

  // The process-wide cache both fusion frontends share.
  static FusedProgramCache& Global();

  // Cache key for a candidate run: every field CompileFusedRun's output
  // depends on, nothing else (tensor *contents* never matter).
  static std::string Key(const std::vector<FusedRunOp>& ops,
                         const std::vector<FusedRunOperand>& operands,
                         DType run_dtype);

  // Returns the cached compile result for this segment signature, compiling
  // (outside the cache lock) and inserting on a miss.
  StatusOr<CompiledRun> GetOrCompile(const std::vector<FusedRunOp>& ops,
                                     const std::vector<FusedRunOperand>& operands,
                                     DType run_dtype);

  void Clear();
  void set_capacity(size_t capacity);
  size_t size() const;

  // Per-instance totals (the profiler counters aggregate the global
  // instance; tests use these on private instances).
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  struct Entry {
    std::string key;
    StatusOr<CompiledRun> result;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace kernels
}  // namespace tfe

#endif  // TFE_KERNELS_PROGRAM_CACHE_H_
