// A reference-counted block of tensor storage.
//
// All storage — including storage "on" the simulated accelerators — is host
// memory; the owning Device is a *tag* recorded on the tensor handle, and
// the simulated devices account for transfer/kernel time in virtual time
// (see device/). Buffers are immutable once published inside a tensor; ops
// that mutate state (variable assign) swap in freshly allocated buffers, so
// readers holding the old buffer are never invalidated.
//
// Storage comes from an Allocator (allocator.h): per-device arenas by
// default, a pass-through SystemAllocator when the context's
// Options::allocator is `system`. The buffer keeps its allocator alive and
// returns the bytes through it.
#ifndef TFE_TENSOR_BUFFER_H_
#define TFE_TENSOR_BUFFER_H_

#include <cstddef>
#include <memory>

namespace tfe {

class Allocator;

class Buffer {
 public:
  // Allocates `bytes` of 64-byte-aligned, zero-initialized storage from the
  // process-default allocator (device-less buffers).
  static std::shared_ptr<Buffer> Allocate(size_t bytes);
  // Same, from a specific allocator (the owning device's).
  static std::shared_ptr<Buffer> Allocate(size_t bytes,
                                          std::shared_ptr<Allocator> allocator);

  // Non-owning view of [offset, offset + bytes) of `base` — the static
  // memory planner's handout into a plan slab (graph/memory_planner.h). The
  // view holds `base`'s shared_ptr, so the slab outlives every view by
  // construction; destroying a view returns nothing to the allocator.
  // `base` must itself own its storage (no views of views).
  static std::shared_ptr<Buffer> View(std::shared_ptr<Buffer> base,
                                      size_t offset, size_t bytes);

  ~Buffer();

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  void* data() { return data_; }
  const void* data() const { return data_; }
  size_t bytes() const { return bytes_; }

  // The allocator this buffer's storage came from (never null).
  const std::shared_ptr<Allocator>& allocator() const { return allocator_; }

  // True for offset views into a plan slab. Views are never donation
  // targets and never enter the cross-run forwarding pool: their bytes
  // belong to the plan's block-reuse schedule, not to this buffer's
  // lifetime.
  bool is_view() const { return base_ != nullptr; }
  // The owning slab for views, null otherwise.
  const std::shared_ptr<Buffer>& base() const { return base_; }

 private:
  Buffer(void* data, size_t bytes, std::shared_ptr<Allocator> allocator,
         std::shared_ptr<Buffer> base = nullptr)
      : data_(data),
        bytes_(bytes),
        allocator_(std::move(allocator)),
        base_(std::move(base)) {}

  void* data_;
  size_t bytes_;
  std::shared_ptr<Allocator> allocator_;
  std::shared_ptr<Buffer> base_;
};

}  // namespace tfe

#endif  // TFE_TENSOR_BUFFER_H_
