// tfe::serving::Serving — the multi-tenant serving front end.
//
// Sessions are the unit of tenancy: each OpenSession() creates a named
// workspace (serving/workspace.h), optionally chained to a shared parent so
// model weights live once while per-session state stays private. Submit()
// stages a function call on behalf of a session and returns pending-tensor
// futures immediately; the dynamic batcher (serving/batcher.h) coalesces
// same-signature calls from concurrent sessions into one execution through
// the async executor, then splits the result back per caller.
//
// The batching contract mirrors TensorFlow Serving's: a batchable inference
// function treats the leading axis of every tensor argument and output as
// an independent example axis. The runtime proves what it can — all tensor
// arguments share the leading dimension, every output carries it, the graph
// contains no batch-unsafe state (writes, host funcs, seed-0 randomness),
// and the batched trace's inferred output shapes are exactly the row-wise
// stack of the single-call shapes; anything that fails a proof runs
// unbatched (still async) or, for dynamic output shapes, synchronously.
//
// Error isolation: a poisoned or invalid input fails only that session's
// futures and is recorded as the session's deferred error (first-wins,
// surfaced and cleared by the next Submit or SessionStatus) — batch-mates
// are unaffected. Determinism: each session draws Philox substreams
// reserved per call at submit time, so sampled values never depend on
// batching or on other tenants.
#ifndef TFE_SERVING_SERVING_H_
#define TFE_SERVING_SERVING_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ops/attr_value.h"
#include "serving/batcher.h"
#include "serving/workspace.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

class EagerContext;
class Function;
class GraphFunction;

namespace serving {

using SessionId = int64_t;

struct ServingOptions {
  // Window size; 1 (or less) disables coalescing.
  int max_batch_size = 8;
  // Max queueing delay before a partial window flushes (negative means 0).
  int max_queue_delay_us = 200;
  // Name of an existing workspace every session's workspace chains to
  // (shared model weights). Empty: sessions are fully isolated.
  std::string shared_workspace;
  // Base seed for per-session Philox substream derivation. Sessions opened
  // in the same order with the same base draw identical streams.
  uint64_t rng_seed = 0x53455256;  // "SERV"
};

class Serving {
 public:
  explicit Serving(ServingOptions options = {}, EagerContext* ctx = nullptr);
  ~Serving();  // Shutdown() + unregisters remaining session workspaces

  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  // Opens a session with a private workspace (chained to
  // options.shared_workspace when set). `label` is cosmetic; `rng_seed`
  // overrides the derived per-session seed (0 = derive from the base).
  StatusOr<SessionId> OpenSession(const std::string& label = "",
                                  uint64_t rng_seed = 0);

  // Drains the session's in-flight calls, then unregisters its workspace
  // from the global registry; variable storage (and its arena blocks) is
  // freed when the last reference dies.
  Status CloseSession(SessionId session);

  // Submits a staged-function call for `session`. Returns one tensor per
  // function output: pending futures for asynchronous (possibly batched)
  // execution, concrete tensors when dynamic output shapes force the
  // synchronous fallback. A recorded deferred error for the session is
  // returned (and cleared) instead of submitting. `fn` must outlive this
  // Serving instance.
  StatusOr<std::vector<Tensor>> Submit(SessionId session, Function& fn,
                                       const std::vector<Tensor>& args,
                                       const AttrMap& non_tensor_args = {});

  // Blocks until every tensor resolves; returns the first error (all
  // tensors are still waited on).
  static Status Await(const std::vector<Tensor>& outputs);

  // The session's deferred error, cleared on read (OK if none). NotFound
  // for an unknown session.
  Status SessionStatus(SessionId session);

  // The session's private workspace.
  StatusOr<std::shared_ptr<Workspace>> workspace(SessionId session) const;

  // Stops intake and drains the batcher. Idempotent; sessions stay open
  // (their workspaces remain readable) until CloseSession or destruction.
  void Shutdown();

  int64_t num_sessions() const;
  int max_batch_size() const { return batcher_->options().max_batch_size; }
  int max_queue_delay_us() const {
    return batcher_->options().max_queue_delay_us;
  }

 private:
  struct Session {
    SessionId id = -1;
    std::string workspace_name;
    std::shared_ptr<Workspace> workspace;
    uint64_t rng_seed = 0;
    // Guarded by Serving::mu_.
    uint64_t calls_submitted = 0;
    int inflight = 0;
    Status deferred_error;
  };

  // Batch runner (batcher thread): materialize per call, concat, execute,
  // split, resolve futures.
  void RunBatch(std::vector<PendingCall> batch);
  void RunSingle(PendingCall& call);
  void FailCall(PendingCall& call, const Status& status);
  void FinishCall(SessionId session, const Status& status);

  // True when every node of `fn` (recursively through Call) is safe to
  // execute once on behalf of many coalesced calls. Memoized by name.
  bool GraphBatchSafe(const GraphFunction& fn, int depth = 0);

  EagerContext* ctx_;
  ServingOptions options_;
  std::unique_ptr<DynamicBatcher> batcher_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  bool accepting_ = true;
  SessionId next_session_ = 1;
  std::map<SessionId, std::shared_ptr<Session>> sessions_;
  std::map<std::string, bool> batch_safe_;
  // Groups whose batched trace failed the stacked-output-shape proof; their
  // calls run unbatched from then on.
  std::set<std::string> unbatchable_groups_;
};

}  // namespace serving
}  // namespace tfe

#endif  // TFE_SERVING_SERVING_H_
