// Allocator: the ownership-aware storage layer behind Buffer.
//
// Every Buffer obtains (and returns) its bytes through an Allocator. Two
// implementations exist:
//   * SystemAllocator — a pass-through over aligned_alloc/free. Every buffer
//     is a fresh system allocation, which keeps ASan/TSan byte-level
//     visibility into buffer lifetimes (a recycled block would hide
//     use-after-free behind reuse).
//   * ArenaAllocator — power-of-two size-class freelists over system slabs.
//     Freed blocks are retained (up to a cap) and handed back on the next
//     request of the same class, so steady-state eager loops allocate from
//     warm memory instead of paying mmap/munmap + page faults per tensor.
//
// Each Device owns one allocator instance (the allocator-behind-context
// pattern), so CPU, sim, and remote devices account allocations separately;
// device-less buffers go through a process-wide default. The implementation
// is fixed per instance at construction: EagerContext::Options::allocator
// for a context's devices, whose default (and the process allocator's kind)
// is `TFE_ALLOCATOR=system|arena`, parsed once per process.
//
// Observability: every instance keeps an AllocatorStats block, and all
// instances additionally aggregate into the process-wide `allocator.*`
// metric family (bytes_requested, bytes_reused, freelist_hits/misses,
// in_use_bytes, high_water_bytes, donations) surfaced in BENCH_*.json as
// `profiler.allocator.*`.
#ifndef TFE_TENSOR_ALLOCATOR_H_
#define TFE_TENSOR_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace tfe {

// Per-instance allocation accounting. All fields are relaxed atomics:
// individually consistent, which is all a monitoring surface needs.
struct AllocatorStats {
  std::atomic<uint64_t> allocations{0};
  std::atomic<uint64_t> deallocations{0};
  // Payload bytes callers asked for (before size-class rounding).
  std::atomic<uint64_t> bytes_requested{0};
  // Payload bytes served from a freelist instead of the system.
  std::atomic<uint64_t> bytes_reused{0};
  std::atomic<uint64_t> freelist_hits{0};
  std::atomic<uint64_t> freelist_misses{0};
  // Footprint (rounded) bytes currently handed out / the most ever out.
  std::atomic<int64_t> in_use_bytes{0};
  std::atomic<int64_t> high_water_bytes{0};
};

class Allocator {
 public:
  // Every allocation is aligned to this and sized in multiples of it.
  static constexpr size_t kAlignment = 64;

  explicit Allocator(std::string name) : name_(std::move(name)) {}
  virtual ~Allocator() = default;

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  // Returns at least `bytes` of kAlignment-aligned, zero-initialized
  // storage. CHECK-fails on OOM (matching the historical Buffer contract).
  virtual void* AllocateRaw(size_t bytes) = 0;
  // Returns storage obtained from AllocateRaw(bytes) on this instance.
  // `bytes` must be the same value passed to AllocateRaw.
  virtual void DeallocateRaw(void* ptr, size_t bytes) = 0;

  // "arena" or "system".
  virtual const char* kind() const = 0;

  // Instance label (the owning device's canonical name, or "process").
  const std::string& name() const { return name_; }
  const AllocatorStats& stats() const { return stats_; }

 protected:
  // Payload -> footprint rounding shared by both implementations.
  static size_t RoundUp(size_t bytes) {
    size_t rounded = ((bytes + kAlignment - 1) / kAlignment) * kAlignment;
    return rounded == 0 ? kAlignment : rounded;
  }

  // Update per-instance stats and the process-wide allocator.* metrics.
  // `footprint` is the rounded block size actually reserved.
  void NoteAlloc(size_t requested, size_t footprint, bool reused);
  void NoteFree(size_t footprint);

  AllocatorStats stats_;

 private:
  const std::string name_;
};

// Pass-through aligned_alloc/free. Freelist metrics count every allocation
// as a miss so arena-vs-system A/B hit rates stay comparable.
class SystemAllocator : public Allocator {
 public:
  explicit SystemAllocator(std::string name);
  ~SystemAllocator() override = default;

  void* AllocateRaw(size_t bytes) override;
  void DeallocateRaw(void* ptr, size_t bytes) override;
  const char* kind() const override { return "system"; }
};

// Thread-safe slab allocator with power-of-two size-class freelists.
// Class i serves blocks of (kAlignment << i) bytes; requests above the
// largest class fall through to the system path. Freed blocks are retained
// up to `max_retained_bytes`; overflow is released to the system. Returned
// memory is re-zeroed on every AllocateRaw, preserving Buffer's
// zero-initialized contract — the win is avoided system calls and page
// faults, not avoided memset.
class ArenaAllocator : public Allocator {
 public:
  static constexpr size_t kDefaultMaxRetainedBytes = size_t{1} << 30;  // 1 GiB

  explicit ArenaAllocator(std::string name,
                          size_t max_retained_bytes = kDefaultMaxRetainedBytes);
  ~ArenaAllocator() override;

  void* AllocateRaw(size_t bytes) override;
  void DeallocateRaw(void* ptr, size_t bytes) override;
  const char* kind() const override { return "arena"; }

  // Bytes currently parked on freelists (test introspection).
  size_t retained_bytes() const;

 private:
  // Largest class: kAlignment << 25 = 2 GiB.
  static constexpr int kNumClasses = 26;

  // Size class serving `footprint` (a RoundUp result), or kNumClasses if it
  // exceeds the largest class (direct system path).
  static int ClassIndex(size_t footprint);
  static size_t ClassBytes(int cls) { return kAlignment << cls; }

  mutable std::mutex mu_;
  std::vector<void*> freelists_[kNumClasses];
  size_t retained_bytes_ = 0;
  const size_t max_retained_bytes_;
};

enum class AllocatorKind { kArena, kSystem };

// Maps a TFE_ALLOCATOR value to a kind: "system" or "arena"; null or empty
// means unset (arena). Anything else logs a WARNING naming the accepted
// values and falls back to arena, so a typo never passes silently.
AllocatorKind ParseAllocatorKind(const char* value);
// The TFE_ALLOCATOR environment value through ParseAllocatorKind, parsed
// on first call and latched for the process.
AllocatorKind DefaultAllocatorKind();

std::shared_ptr<Allocator> MakeAllocator(AllocatorKind kind, std::string name);

// Process-wide allocator for device-less buffers: one leaked instance of
// DefaultAllocatorKind().
const std::shared_ptr<Allocator>& ProcessAllocator();

}  // namespace tfe

#endif  // TFE_TENSOR_ALLOCATOR_H_
