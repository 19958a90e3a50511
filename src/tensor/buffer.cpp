#include "tensor/buffer.h"

#include <utility>

#include "support/logging.h"
#include "tensor/allocator.h"

namespace tfe {

std::shared_ptr<Buffer> Buffer::Allocate(size_t bytes) {
  return Allocate(bytes, ProcessAllocator());
}

std::shared_ptr<Buffer> Buffer::Allocate(
    size_t bytes, std::shared_ptr<Allocator> allocator) {
  TFE_CHECK(allocator != nullptr);
  void* data = allocator->AllocateRaw(bytes);
  return std::shared_ptr<Buffer>(
      new Buffer(data, bytes, std::move(allocator)));
}

Buffer::~Buffer() { allocator_->DeallocateRaw(data_, bytes_); }

}  // namespace tfe
