#include "tensor/allocator.h"

#include <cstdlib>
#include <cstring>

#include "profiler/profiler.h"
#include "support/logging.h"

namespace tfe {

namespace {

// Process-wide aggregate metrics across every allocator instance. Cached
// pointers; counters/gauges are cheap enough to update unconditionally.
struct GlobalAllocatorMetrics {
  profiler::Counter* alloc_calls;
  profiler::Counter* deallocations;
  profiler::Counter* bytes_requested;
  profiler::Counter* bytes_reused;
  profiler::Counter* freelist_hits;
  profiler::Counter* freelist_misses;
  profiler::Gauge* in_use_bytes;
  profiler::Gauge* high_water_bytes;

  GlobalAllocatorMetrics() {
    auto& m = profiler::Metrics();
    alloc_calls = m.GetCounter("allocator.alloc_calls");
    deallocations = m.GetCounter("allocator.deallocations");
    bytes_requested = m.GetCounter("allocator.bytes_requested");
    bytes_reused = m.GetCounter("allocator.bytes_reused");
    freelist_hits = m.GetCounter("allocator.freelist_hits");
    freelist_misses = m.GetCounter("allocator.freelist_misses");
    in_use_bytes = m.GetGauge("allocator.in_use_bytes");
    high_water_bytes = m.GetGauge("allocator.high_water_bytes");
  }
};

GlobalAllocatorMetrics& GlobalMetrics() {
  static GlobalAllocatorMetrics* metrics = new GlobalAllocatorMetrics();
  return *metrics;
}

void* SystemAlloc(size_t footprint) {
  void* ptr = std::aligned_alloc(Allocator::kAlignment, footprint);
  TFE_CHECK(ptr != nullptr) << "Out of memory allocating " << footprint
                            << " bytes";
  return ptr;
}

void RaiseHighWater(profiler::Gauge* high_water, int64_t in_use) {
  // Monitoring-grade check-then-set: concurrent raises may interleave, but
  // the gauge only ever moves toward the true maximum.
  if (in_use > high_water->value()) high_water->Set(in_use);
}

}  // namespace

void Allocator::NoteAlloc(size_t requested, size_t footprint, bool reused) {
  stats_.allocations.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_requested.fetch_add(requested, std::memory_order_relaxed);
  if (reused) {
    stats_.bytes_reused.fetch_add(requested, std::memory_order_relaxed);
    stats_.freelist_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.freelist_misses.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t in_use =
      stats_.in_use_bytes.fetch_add(static_cast<int64_t>(footprint),
                                    std::memory_order_relaxed) +
      static_cast<int64_t>(footprint);
  int64_t high = stats_.high_water_bytes.load(std::memory_order_relaxed);
  while (in_use > high && !stats_.high_water_bytes.compare_exchange_weak(
                              high, in_use, std::memory_order_relaxed)) {
  }

  auto& global = GlobalMetrics();
  global.alloc_calls->Increment();
  global.bytes_requested->Increment(requested);
  if (reused) {
    global.bytes_reused->Increment(requested);
    global.freelist_hits->Increment();
  } else {
    global.freelist_misses->Increment();
  }
  global.in_use_bytes->Add(static_cast<int64_t>(footprint));
  RaiseHighWater(global.high_water_bytes, global.in_use_bytes->value());
}

void Allocator::NoteFree(size_t footprint) {
  stats_.deallocations.fetch_add(1, std::memory_order_relaxed);
  stats_.in_use_bytes.fetch_sub(static_cast<int64_t>(footprint),
                                std::memory_order_relaxed);
  auto& global = GlobalMetrics();
  global.deallocations->Increment();
  global.in_use_bytes->Add(-static_cast<int64_t>(footprint));
}

SystemAllocator::SystemAllocator(std::string name)
    : Allocator(std::move(name)) {}

void* SystemAllocator::AllocateRaw(size_t bytes) {
  size_t footprint = RoundUp(bytes);
  void* ptr = SystemAlloc(footprint);
  std::memset(ptr, 0, footprint);
  NoteAlloc(bytes, footprint, /*reused=*/false);
  return ptr;
}

void SystemAllocator::DeallocateRaw(void* ptr, size_t bytes) {
  if (ptr == nullptr) return;
  std::free(ptr);
  NoteFree(RoundUp(bytes));
}

ArenaAllocator::ArenaAllocator(std::string name, size_t max_retained_bytes)
    : Allocator(std::move(name)), max_retained_bytes_(max_retained_bytes) {}

ArenaAllocator::~ArenaAllocator() {
  // Buffers hold a shared_ptr to their allocator, so by the time the arena
  // dies every outstanding block has already come back to the freelists.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& freelist : freelists_) {
    for (void* ptr : freelist) std::free(ptr);
    freelist.clear();
  }
  retained_bytes_ = 0;
}

int ArenaAllocator::ClassIndex(size_t footprint) {
  int cls = 0;
  size_t bytes = kAlignment;
  while (bytes < footprint && cls < kNumClasses) {
    bytes <<= 1;
    ++cls;
  }
  return cls;
}

size_t ArenaAllocator::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_bytes_;
}

void* ArenaAllocator::AllocateRaw(size_t bytes) {
  const size_t rounded = RoundUp(bytes);
  const int cls = ClassIndex(rounded);
  const bool direct = cls >= kNumClasses;
  const size_t footprint = direct ? rounded : ClassBytes(cls);

  void* ptr = nullptr;
  if (!direct) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!freelists_[cls].empty()) {
      ptr = freelists_[cls].back();
      freelists_[cls].pop_back();
      retained_bytes_ -= footprint;
    }
  }
  const bool reused = ptr != nullptr;
  if (!reused) {
    ptr = SystemAlloc(footprint);
    if (profiler::enabled()) {
      static const uint32_t slab_name = profiler::Intern("allocator_slab");
      profiler::RecordInstant(profiler::EventKind::kAllocator, slab_name,
                              static_cast<int64_t>(footprint));
    }
  }
  // Re-zero even reused blocks: Buffer's contract is zero-initialized
  // storage, and the previous tenant's bytes are still in there.
  std::memset(ptr, 0, footprint);
  NoteAlloc(bytes, footprint, reused);
  return ptr;
}

void ArenaAllocator::DeallocateRaw(void* ptr, size_t bytes) {
  if (ptr == nullptr) return;
  const size_t rounded = RoundUp(bytes);
  const int cls = ClassIndex(rounded);
  const bool direct = cls >= kNumClasses;
  const size_t footprint = direct ? rounded : ClassBytes(cls);

  bool retain = false;
  if (!direct) {
    std::lock_guard<std::mutex> lock(mu_);
    if (retained_bytes_ + footprint <= max_retained_bytes_) {
      freelists_[cls].push_back(ptr);
      retained_bytes_ += footprint;
      retain = true;
    }
  }
  if (!retain) std::free(ptr);
  NoteFree(footprint);
}

AllocatorKind ParseAllocatorKind(const char* value) {
  if (value == nullptr || value[0] == '\0') return AllocatorKind::kArena;
  if (std::strcmp(value, "system") == 0) return AllocatorKind::kSystem;
  if (std::strcmp(value, "arena") != 0) {
    TFE_LOG(WARNING) << "TFE_ALLOCATOR=" << value
                     << " is not one of arena|system; using arena";
  }
  return AllocatorKind::kArena;
}

AllocatorKind DefaultAllocatorKind() {
  static const AllocatorKind kind =
      ParseAllocatorKind(std::getenv("TFE_ALLOCATOR"));
  return kind;
}

std::shared_ptr<Allocator> MakeAllocator(AllocatorKind kind,
                                         std::string name) {
  if (kind == AllocatorKind::kSystem) {
    return std::make_shared<SystemAllocator>(std::move(name));
  }
  return std::make_shared<ArenaAllocator>(std::move(name));
}

const std::shared_ptr<Allocator>& ProcessAllocator() {
  // Leaked singleton: buffers may outlive every context and static
  // destruction order is unknowable, so the process allocator never dies.
  static const auto* process = new std::shared_ptr<Allocator>(
      MakeAllocator(DefaultAllocatorKind(), "process"));
  return *process;
}

}  // namespace tfe
