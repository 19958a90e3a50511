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

  ~Buffer();

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  void* data() { return data_; }
  const void* data() const { return data_; }
  size_t bytes() const { return bytes_; }

  // The allocator this buffer's storage came from (never null).
  const std::shared_ptr<Allocator>& allocator() const { return allocator_; }

 private:
  Buffer(void* data, size_t bytes, std::shared_ptr<Allocator> allocator)
      : data_(data), bytes_(bytes), allocator_(std::move(allocator)) {}

  void* data_;
  size_t bytes_;
  std::shared_ptr<Allocator> allocator_;
};

}  // namespace tfe

#endif  // TFE_TENSOR_BUFFER_H_
