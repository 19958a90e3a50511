// The compiled-program cache behind fused DAG execution (LazyTensor's
// "compiler cache keyed on trace hash", arXiv 2102.13267, applied to our
// MicroProgram compiler).
//
// The fused-run selector recognizes the same DAG segment on every training
// step, for either frontend; only its shapes and dtypes matter to
// CompileFusedRun, so the cache key is the segment's signature: a packed
// binary encoding (varints, each list prefixed by its length) of the run
// dtype and, per member, its OpDef, dtype, shape, producer/operand argument
// references, layout perm, reduction axes and materialization bit, then each
// operand's dtype, shape and donation bit. Encoding a key is a few byte
// stores into a reused buffer, not string formatting, so a lookup costs
// about what the run it returns costs to describe.
//
// An entry is built once, on insert, and never changes after: a hit hands
// out the shared entry, not a copy. The entry is what the FusedElementwise
// kernel runs: its CompiledRun holds the one copy of the program, the run
// dtype, the donation plan and the DAG bit. The drain passes it to the
// kernel directly; the static pass stores it on the fused graph node
// (Node::program), and the executor passes it from there.
//
// Failed compilations are cached too: a segment the compiler rejects is
// rejected identically every step, and the selector's shrink-and-retry must
// learn that without paying the compile walk each time.
//
// Eviction is LRU with a fixed entry cap. Counters
// fusion.program_cache.{hit,miss,evict} and a program_cache_hit trace
// instant surface behavior through the profiler registry.
#ifndef TFE_KERNELS_PROGRAM_CACHE_H_
#define TFE_KERNELS_PROGRAM_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernels/fused_elementwise.h"
#include "support/status.h"

namespace tfe {
namespace kernels {

// One cache entry: a run signature's compile result. Immutable.
struct FusedProgram {
  Status status;    // the compile error; OK when `run` holds a program
  CompiledRun run;  // what the FusedElementwise kernel runs

  bool ok() const { return status.ok(); }
};

class FusedProgramCache {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit FusedProgramCache(size_t capacity = kDefaultCapacity);

  // The process-wide cache both fusion frontends share.
  static FusedProgramCache& Global();

  // Returns the entry for this segment signature, compiling (outside the
  // cache lock) and inserting on a miss. Never null.
  std::shared_ptr<const FusedProgram> GetOrCompile(
      const std::vector<FusedRunOp>& ops,
      const std::vector<FusedRunOperand>& operands, DType run_dtype);

  void Clear();
  size_t size() const;

  // Per-instance totals (the profiler counters aggregate the global
  // instance; tests use these on private instances).
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const FusedProgram> program;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  // Keyed by views of the entries' own keys (list nodes never move).
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace kernels
}  // namespace tfe

#endif  // TFE_KERNELS_PROGRAM_CACHE_H_
