// FixedBufferPool: one contiguous, page-aligned arena registered with an
// io_uring via IORING_REGISTER_BUFFERS, carved into the I/O destinations
// the sampling hot path reads into (the pipeline's two block staging
// buffers). Reads whose destination lies inside the arena can be
// submitted as IORING_OP_READ_FIXED: the kernel resolves the
// registration once instead of pinning and translating the user pages
// on every I/O — the per-operation cost that dominates small random
// reads (paper §3.1; GIDS and DiskGNN make the same observation).
//
// The arena is registered as a *single* iovec (buf_index 0) rather than
// the queue_depth-sliced layout one might expect: READ_FIXED only
// requires that [addr, addr+len) fall inside one registered iovec, and
// the pipeline's extents are variable-sized, so per-slot slices would
// either waste memory or force copies.
// One big iovec gives every carved buffer the fixed-path benefit with a
// trivial containment check at submit time.
//
// Thread-compatibility mirrors Ring: one pool per backend, one backend
// per worker thread. Allocation is a bump pointer — buffers live for the
// backend's lifetime and are never returned individually.
#pragma once

#include <memory>
#include <span>

#include "util/align.h"
#include "util/status.h"

namespace rs::uring {
class Ring;
}

namespace rs::io {

class FixedBufferPool {
 public:
  // Allocates (but does not register) an arena of at least `arena_bytes`,
  // aligned and rounded up to kDirectIoAlign so carved block buffers
  // satisfy O_DIRECT.
  static Result<std::unique_ptr<FixedBufferPool>> create(
      std::size_t arena_bytes);

  // Registers the arena with `ring` as a single fixed buffer (buf_index
  // 0). May fail on kernels without buffer registration or under
  // registration limits; the caller degrades to plain reads then.
  Status register_with(uring::Ring& ring);
  bool registered() const { return registered_; }

  // Bump-allocates `bytes` from the arena at `align` (power of two).
  // Fails with kOutOfMemory when the arena is exhausted — callers fall
  // back to a private allocation (losing only the fixed path, not
  // correctness).
  Result<std::span<unsigned char>> allocate(
      std::size_t bytes, std::size_t align = kDirectIoAlign);

  // True iff [p, p+len) lies inside the arena; then *buf_index is the
  // registered-buffer index to pass to prep_read_fixed.
  bool resolve(const void* p, std::size_t len, unsigned* buf_index) const {
    const auto* q = static_cast<const unsigned char*>(p);
    if (q < arena_.get() || len > arena_bytes_ ||
        q + len > arena_.get() + arena_bytes_) {
      return false;
    }
    *buf_index = 0;
    return true;
  }

  std::size_t arena_bytes() const { return arena_bytes_; }
  std::size_t used_bytes() const { return used_; }

 private:
  FixedBufferPool(AlignedPtr arena, std::size_t bytes)
      : arena_(std::move(arena)), arena_bytes_(bytes) {}

  AlignedPtr arena_;
  std::size_t arena_bytes_ = 0;
  std::size_t used_ = 0;
  bool registered_ = false;
};

}  // namespace rs::io
