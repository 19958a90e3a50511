#include "profiler/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "profiler/chrome_trace.h"

namespace tfe {
namespace profiler {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

// Events each thread can buffer between flushes. Power of two; at ~40 bytes
// per event a full buffer is ~2.6 MB. Overflow drops (and counts) rather
// than overwriting, so a concurrent flush never races a wrapping writer.
constexpr uint64_t kBufferCapacity = uint64_t{1} << 16;

// Single-producer (owning thread) / single-consumer (Collect, serialized by
// the registry lock) ring. head_ and tail_ are monotonically increasing;
// slot index is value % capacity. TSan-clean: the writer publishes a slot
// with a release store of head_, the reader acquires head_ before touching
// slots and releases tail_ after, which the writer acquires before reuse.
struct ThreadBuffer {
  std::vector<Event> slots{std::vector<Event>(kBufferCapacity)};
  std::atomic<uint64_t> head{0};  // next slot the writer fills
  std::atomic<uint64_t> tail{0};  // next slot the reader drains
  std::atomic<uint64_t> dropped{0};
  uint32_t tid = 0;
  std::string thread_name;
};

class BufferRegistry {
 public:
  static BufferRegistry& Get() {
    // Leaked singleton: threads may record during process teardown.
    static BufferRegistry* registry = new BufferRegistry();
    return *registry;
  }

  ThreadBuffer* RegisterCurrentThread() {
    auto buffer = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = buffer.get();
#if defined(__linux__)
    char name[64] = {0};
    if (pthread_getname_np(pthread_self(), name, sizeof(name)) == 0 &&
        name[0] != '\0') {
      raw->thread_name = name;
    }
#endif
    std::lock_guard<std::mutex> lock(mu_);
    raw->tid = static_cast<uint32_t>(buffers_.size()) + 1;
    if (raw->thread_name.empty()) {
      raw->thread_name = "thread-" + std::to_string(raw->tid);
    }
    buffers_.push_back(std::move(buffer));
    return raw;
  }

  std::vector<CollectedEvent> Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<CollectedEvent> events;
    for (const auto& buffer : buffers_) {
      const uint64_t tail = buffer->tail.load(std::memory_order_relaxed);
      const uint64_t head = buffer->head.load(std::memory_order_acquire);
      for (uint64_t i = tail; i < head; ++i) {
        events.push_back({buffer->slots[i % kBufferCapacity], buffer->tid});
      }
      buffer->tail.store(head, std::memory_order_release);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const CollectedEvent& a, const CollectedEvent& b) {
                       return a.event.start_ns < b.event.start_ns;
                     });
    return events;
  }

  std::map<uint32_t, std::string> ThreadNames() {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint32_t, std::string> names;
    for (const auto& buffer : buffers_) {
      names.emplace(buffer->tid, buffer->thread_name);
    }
    return names;
  }

  uint64_t Dropped() {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& buffer : buffers_) {
      total += buffer->dropped.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  // Guards registration and flushing (flushes are serialized; recording is
  // lock-free against both).
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* LocalBuffer() {
  if (t_buffer == nullptr) {
    t_buffer = BufferRegistry::Get().RegisterCurrentThread();
  }
  return t_buffer;
}

// Leaked string interner; ids are indices into strings_.
class Interner {
 public:
  static Interner& Get() {
    static Interner* interner = new Interner();
    return *interner;
  }

  uint32_t Intern(std::string_view s) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    strings_.push_back(std::make_unique<std::string>(s));
    const uint32_t id = static_cast<uint32_t>(strings_.size());  // 0 = none
    ids_.emplace(*strings_.back(), id);
    return id;
  }

  const std::string& Lookup(uint32_t id) {
    static const std::string empty;
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0 || id > strings_.size()) return empty;
    return *strings_[id - 1];
  }

 private:
  std::mutex mu_;
  // unique_ptr gives every string a stable address for the view keys below.
  std::vector<std::unique_ptr<std::string>> strings_;
  std::unordered_map<std::string_view, uint32_t> ids_;
};

std::string* g_export_path = nullptr;

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kDispatch: return "dispatch";
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kQueueDrain: return "queue_drain";
    case EventKind::kFusionRun: return "fusion_run";
    case EventKind::kKernel: return "kernel";
    case EventKind::kTraceCacheHit: return "trace_cache_hit";
    case EventKind::kTraceCacheMiss: return "trace_cache_miss";
    case EventKind::kTraceStage: return "trace";
    case EventKind::kVariableOp: return "variable_op";
    case EventKind::kRpcRecv: return "rpc_recv";
    case EventKind::kExecutorRun: return "executor_run";
    case EventKind::kRemoteEnqueue: return "remote_enqueue";
    case EventKind::kRemoteResolve: return "remote_resolve";
    case EventKind::kAllocator: return "allocator";
    case EventKind::kServing: return "serving";
    case EventKind::kLoop: return "loop";
  }
  return "unknown";
}

bool EventKindIsSpan(EventKind kind) {
  switch (kind) {
    case EventKind::kDispatch:
    case EventKind::kQueueDrain:
    case EventKind::kKernel:
    case EventKind::kTraceStage:
    case EventKind::kRpcRecv:
    case EventKind::kExecutorRun:
    case EventKind::kRemoteEnqueue:
    case EventKind::kRemoteResolve:
      return true;
    default:
      return false;
  }
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t Intern(std::string_view s) { return Interner::Get().Intern(s); }

const std::string& InternedString(uint32_t id) {
  return Interner::Get().Lookup(id);
}

void Start() {
  // Touch the leaked singletons before anyone can race a first Record.
  BufferRegistry::Get();
  Interner::Get();
  internal::g_enabled.store(true, std::memory_order_relaxed);
}

void Stop() { internal::g_enabled.store(false, std::memory_order_relaxed); }

void Record(const Event& event) {
  if (!enabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  const uint64_t head = buffer->head.load(std::memory_order_relaxed);
  const uint64_t tail = buffer->tail.load(std::memory_order_acquire);
  if (head - tail >= kBufferCapacity) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->slots[head % kBufferCapacity] = event;
  buffer->head.store(head + 1, std::memory_order_release);
}

void RecordInstant(EventKind kind, uint32_t name, int64_t arg,
                   uint32_t detail) {
  if (!enabled()) return;
  Event event;
  event.kind = kind;
  event.name = name;
  event.arg = arg;
  event.detail = detail;
  event.start_ns = NowNs();
  Record(event);
}

std::vector<CollectedEvent> Collect() { return BufferRegistry::Get().Collect(); }

std::map<uint32_t, std::string> ThreadNames() {
  return BufferRegistry::Get().ThreadNames();
}

uint64_t DroppedEvents() { return BufferRegistry::Get().Dropped(); }

Status ExportChromeTrace(const std::string& path) {
  return WriteChromeTrace(path, Collect(), ThreadNames());
}

MetricsRegistry& Metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void InitFromEnv() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("TFE_PROFILE");
    if (path == nullptr || path[0] == '\0') return;
    Start();
    g_export_path = new std::string(path);
    std::atexit([] {
      Status status = ExportChromeTrace(*g_export_path);
      if (status.ok()) {
        std::fprintf(stderr, "profiler: wrote %s\n", g_export_path->c_str());
      } else {
        std::fprintf(stderr, "profiler: export failed: %s\n",
                     status.ToString().c_str());
      }
    });
  });
}

}  // namespace profiler
}  // namespace tfe
