// Always-compiled-in, runtime-toggled event profiler for the eager runtime.
//
// Every layer of the runtime — dispatch, the per-device op queues, the drain
// fuser, kernels, the dataflow executor, the staging trace cache, and the
// in-process cluster RPCs — records typed events here. Recording goes into a
// per-thread lock-free single-producer ring buffer (the profiler thread id
// is assigned at first use); a flush (Collect / ExportChromeTrace) is the
// single consumer and may run concurrently with recording. When profiling is
// off the entire record path is one relaxed atomic load.
//
// Exports: Chrome trace_event JSON (chrome://tracing / Perfetto loadable)
// via ExportChromeTrace, and a process-wide MetricsRegistry of counters /
// gauges / histograms via Metrics().
//
// Environment activation: TFE_PROFILE=<path> starts the profiler at the
// first EagerContext construction and writes <path> at process exit.
#ifndef TFE_PROFILER_PROFILER_H_
#define TFE_PROFILER_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "profiler/metrics.h"
#include "support/status.h"

namespace tfe {
namespace profiler {

// Event taxonomy. Kinds marked (span) carry a duration; the rest are
// instants. The Chrome exporter maps kinds to categories one-for-one.
enum class EventKind : uint8_t {
  kDispatch = 0,    // (span) one eager op through Dispatch(), host thread
  kEnqueue,         // op enqueued on a device queue (arg = queue depth)
  kQueueDrain,      // (span) one drain invocation on a pool thread
  kFusionRun,       // fused run formed on the drain (arg = run length)
  kKernel,          // (span) kernel execution (detail = device+shape,
                    //  arg = bytes touched)
  kTraceCacheHit,   // staged-function signature hit the trace cache
  kTraceCacheMiss,  // signature missed; a trace follows
  kTraceStage,      // (span) tracing a function into a graph
  kVariableOp,      // variable read/assign dispatched
  kRpcRecv,         // (span) service-thread execution of a worker request
  kExecutorRun,     // (span) one dataflow executor invocation (arg = nodes)
  kRemoteEnqueue,   // (span) client-side issue of a remote op over the
                    //  pending-handle protocol (detail = op name)
  kRemoteResolve,   // (span) worker completion resolving the client's
                    //  pending handles (detail = op name)
  kAllocator,       // allocator event: a fresh slab pulled from the system
                    //  ("allocator_slab", arg = bytes) or a fused-run buffer
                    //  donation ("buffer_donation", arg = bytes)
  kServing,         // serving-layer event: a cross-request batch executed
                    //  ("batched_run", arg = coalesced calls), a call ran
                    //  unbatched ("unbatched_run"), or a session opened or
                    //  closed ("session_open"/"session_close")
  kLoop,            // staged control-flow event: a While kernel finished a
                    //  loop ("staged_loop", arg = iterations) or its
                    //  gradient finished the reverse replay
                    //  ("staged_loop_grad", arg = iterations)
};

// Stable lowercase name ("dispatch", "kernel", ...) used as the Chrome
// trace category.
const char* EventKindName(EventKind kind);
bool EventKindIsSpan(EventKind kind);

struct Event {
  uint64_t start_ns = 0;  // steady-clock time (NowNs domain)
  uint64_t dur_ns = 0;    // 0 for instant events
  uint32_t name = 0;      // interned string id (Intern)
  uint32_t detail = 0;    // optional secondary label id, 0 = none
  EventKind kind = EventKind::kDispatch;
  int64_t arg = 0;        // kind-specific payload
};

// An event stamped with the profiler thread id that recorded it.
struct CollectedEvent {
  Event event;
  uint32_t tid = 0;
};

namespace internal {
extern std::atomic<bool> g_enabled;
}

// The always-on toggle every record path early-outs on.
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Steady-clock nanoseconds — the profiler's (wall) clock domain. Distinct
// from the runtime's virtual clock: traces show where real time goes.
uint64_t NowNs();

// Interns a string, returning a dense id stable for the process lifetime.
// Instrumentation sites intern hot names once and reuse the id.
uint32_t Intern(std::string_view s);
const std::string& InternedString(uint32_t id);

// Enables / disables collection. Idempotent. Events recorded before Stop
// stay buffered until the next Collect/Export.
void Start();
void Stop();

// Records one event into the calling thread's ring buffer (drops and counts
// when the buffer is full). No-op when profiling is off.
void Record(const Event& event);
void RecordInstant(EventKind kind, uint32_t name, int64_t arg = 0,
                   uint32_t detail = 0);

// Drains every thread's buffer and merges across threads in start-time
// order. Consecutive calls return disjoint batches; collection keeps
// running. Safe to call concurrently with recording (never with itself).
std::vector<CollectedEvent> Collect();

// Profiler thread id -> OS thread name (best effort), for trace metadata.
std::map<uint32_t, std::string> ThreadNames();

// Events discarded because a thread buffer was full.
uint64_t DroppedEvents();

// Collects everything buffered and writes Chrome trace_event JSON.
Status ExportChromeTrace(const std::string& path);

// The process-wide metrics registry. Counters/gauges stay cheap enough to
// update unconditionally; event-derived histograms update only while
// profiling is on.
MetricsRegistry& Metrics();

// Honors TFE_PROFILE=<path>: starts the profiler and registers an at-exit
// Chrome-trace export. Called by the EagerContext constructor; idempotent.
void InitFromEnv();

// RAII span: snapshots the clock at construction when profiling is on,
// records a complete event at destruction.
class Scope {
 public:
  Scope(EventKind kind, uint32_t name_id) {
    if (!enabled()) return;
    event_.kind = kind;
    event_.name = name_id;
    start_ns_ = NowNs();
  }
  Scope(EventKind kind, std::string_view name)
      : Scope(kind, enabled() ? Intern(name) : 0) {}
  ~Scope() {
    if (start_ns_ == 0) return;
    event_.start_ns = start_ns_;
    event_.dur_ns = NowNs() - start_ns_;
    Record(event_);
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Whether this scope is live (profiling was on at construction).
  bool active() const { return start_ns_ != 0; }
  uint64_t start_ns() const { return start_ns_; }
  void set_arg(int64_t arg) { event_.arg = arg; }
  void set_detail(uint32_t detail_id) { event_.detail = detail_id; }

 private:
  uint64_t start_ns_ = 0;
  Event event_;
};

}  // namespace profiler
}  // namespace tfe

#endif  // TFE_PROFILER_PROFILER_H_
