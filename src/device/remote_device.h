// RemoteDevice: a worker-resident device registered in the client's
// DeviceManager as a first-class Device (paper §4.5: "executing an operation
// on a remote device is syntactically equivalent to executing an operation
// on a local device"). It is the only way work reaches a worker. Dispatching
// to one flows through the ordinary per-device OpQueue; the op is forwarded
// to the owning worker through a RemoteBackend, outputs are pending
// TensorHandles that the worker's completion callback resolves, and values
// stay in the worker's tensor store until a read fetches them (transparent
// copy-on-read). A staged function call is the `Call` op like any other.
//
// The backend is an abstract transport so device/ stays independent of
// distrib/: the in-process cluster binds it to a WorkerServer message queue
// (the gRPC stand-in); a real deployment would bind it to a stub.
#ifndef TFE_DEVICE_REMOTE_DEVICE_H_
#define TFE_DEVICE_REMOTE_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "device/device.h"
#include "ops/attr_value.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

// Metadata of one tensor living in a worker's store — the wire form of an
// op's output (values never travel unless fetched).
struct RemoteOutputMeta {
  int64_t handle_id = -1;
  DType dtype = DType::kInvalid;
  Shape shape;
};

// Transport to one worker. All methods are thread-safe and only Fetch
// blocks; the worker processes requests in submission order (the ordering
// guarantee the pending-handle protocol rests on: a producer's op always
// reaches the worker before its consumer's, so consumers may reference
// output ids that do not exist yet). Completion callbacks run on the
// worker's service thread — or inline on the caller when the worker is shut
// down or the backend disconnected — and must not block.
class RemoteBackend {
 public:
  using DoneFn = std::function<void(StatusOr<std::vector<RemoteOutputMeta>>)>;

  virtual ~RemoteBackend() = default;

  // "/job:<job>/task:<task>" — the worker this backend speaks to.
  virtual const std::string& target() const = 0;

  // Reserves a store id the client may assign to a shipped input or a
  // pending output. Client-allocated ids live in a range disjoint from the
  // worker's own so the two allocators never collide.
  virtual int64_t AllocateHandleId() = 0;

  // Ships a concrete tensor into the worker store under `dst_id` without
  // waiting for the worker. Fails with InvalidArgument for a tensor that is
  // not a concrete value and with Unavailable once disconnected.
  virtual Status Put(const Tensor& value, int64_t dst_id) = 0;

  // Executes one op on the worker. `device` is the device part relative to
  // the worker (e.g. "/device:CPU:0"). Inputs are store ids. When
  // `output_ids` is non-empty the worker stores the results under exactly
  // those ids (pending-handle protocol); when empty it allocates ids itself
  // and reports them in the completion metas. A `Call` whose attrs carry a
  // `serialized_function` bundle has the worker register the bundle's
  // functions before it runs the call.
  virtual void RunOpAsync(const std::string& device, const std::string& op,
                          std::vector<int64_t> input_ids, AttrMap attrs,
                          std::vector<int64_t> output_ids, DoneFn done) = 0;

  // Per-worker "already shipped" record for staged functions: a function is
  // serialized and attached to its first remote call only (ship-once);
  // afterwards the worker resolves the name against its own library. Marked
  // only after successful serialization, so a failure stays reportable.
  virtual bool FunctionShipped(const std::string& name) = 0;
  virtual void MarkFunctionShipped(const std::string& name) = 0;

  // Copies a stored tensor back to the client as plain host data (the
  // transparent copy-on-read behind remote value reads). Blocking.
  virtual StatusOr<Tensor> Fetch(int64_t handle_id) = 0;

  // Drops a store entry once every request submitted before it has run;
  // safe after disconnect (no-op). Never blocks.
  virtual void DeleteAsync(int64_t handle_id) = 0;
};

class RemoteDevice : public Device {
 public:
  RemoteDevice(DeviceNameParts name, std::shared_ptr<RemoteBackend> backend);

  bool IsRemote() const override { return true; }

  RemoteBackend* backend() const { return backend_.get(); }
  const std::shared_ptr<RemoteBackend>& shared_backend() const {
    return backend_;
  }
  // The device part relative to the owning worker ("/device:CPU:0" etc.),
  // what the worker's own DeviceManager resolves.
  const std::string& local_device_part() const { return local_part_; }

  // Turns the inputs of remote op `op_name` into worker-store ids, the one
  // input assembly both remote dispatch paths use. Inputs already on this
  // worker pass by id (their producing request is ahead of the op's in the
  // worker's in-order queue); local values ship to fresh ids, which are
  // appended to `temp_ids` for the caller to drop once the op's reply
  // arrives. Local pending inputs must be resolved or about to resolve
  // without this thread's help (the drain parks on them; the blocking path
  // drains every queue first). Fails — after dropping the temps it shipped —
  // with a poisoned input's original status, with InvalidArgument for an
  // input on another worker or one that is not a concrete value, or with the
  // backend's Put error.
  Status AssembleInputs(const std::string& op_name,
                        const std::vector<Tensor>& inputs,
                        std::vector<int64_t>* input_ids,
                        std::vector<int64_t>* temp_ids) const;

 private:
  std::shared_ptr<RemoteBackend> backend_;
  std::string local_part_;
};

}  // namespace tfe

#endif  // TFE_DEVICE_REMOTE_DEVICE_H_
