#include "uring/ring.h"

#include <errno.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "uring/uring_syscalls.h"
#include "util/log.h"

// Fallbacks for toolchains whose <linux/io_uring.h> predates the
// features we use at runtime (the kernel still honors them; we check
// the reported feature bits before relying on EXT_ARG).
#ifndef IORING_FEAT_EXT_ARG
#define IORING_FEAT_EXT_ARG (1U << 8)
#endif
#ifndef IORING_ENTER_EXT_ARG
#define IORING_ENTER_EXT_ARG (1U << 3)
#endif
#ifndef IORING_FEAT_NODROP
#define IORING_FEAT_NODROP (1U << 1)
#endif
#ifndef IORING_SQ_CQ_OVERFLOW
#define IORING_SQ_CQ_OVERFLOW (1U << 1)
#endif
#ifndef IORING_ENTER_SQ_WAIT
#define IORING_ENTER_SQ_WAIT (1U << 2)
#endif

namespace rs::uring {
namespace {

// The SQ tail / CQ head are written by us and read by the kernel (and vice
// versa), so all cross-side accesses need explicit ordering: release when
// publishing, acquire when observing.
inline unsigned load_acquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}
inline unsigned load_relaxed(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}
inline void store_release(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

void* checked_mmap(std::size_t bytes, int fd, off_t offset) {
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, fd, offset);
  return mem == MAP_FAILED ? nullptr : mem;
}

}  // namespace

Ring::~Ring() { destroy(); }

Ring::Ring(Ring&& other) noexcept { *this = std::move(other); }

Ring& Ring::operator=(Ring&& other) noexcept {
  if (this != &other) {
    destroy();
    ring_fd_ = std::exchange(other.ring_fd_, -1);
    setup_flags_ = other.setup_flags_;
    features_ = other.features_;
    sq_ring_mem_ = std::exchange(other.sq_ring_mem_, nullptr);
    sq_ring_bytes_ = other.sq_ring_bytes_;
    sq_khead_ = other.sq_khead_;
    sq_ktail_ = other.sq_ktail_;
    sq_kflags_ = other.sq_kflags_;
    sq_array_ = other.sq_array_;
    sq_ring_mask_ = other.sq_ring_mask_;
    sq_entries_ = other.sq_entries_;
    sqes_ = std::exchange(other.sqes_, nullptr);
    sqe_bytes_ = other.sqe_bytes_;
    cq_ring_mem_ = std::exchange(other.cq_ring_mem_, nullptr);
    cq_ring_bytes_ = other.cq_ring_bytes_;
    cq_khead_ = other.cq_khead_;
    cq_ktail_ = other.cq_ktail_;
    cqes_ = other.cqes_;
    cq_ring_mask_ = other.cq_ring_mask_;
    cq_entries_ = other.cq_entries_;
    sqe_head_ = other.sqe_head_;
    sqe_tail_ = other.sqe_tail_;
    stats_ = other.stats_;
  }
  return *this;
}

Result<Ring> Ring::create(const RingConfig& config) {
  Ring ring;
  RS_RETURN_IF_ERROR(ring.init(config));
  return ring;
}

Status Ring::init(const RingConfig& config) {
  RS_CHECK(config.entries > 0);
  io_uring_params params{};
  if (config.sqpoll) {
    params.flags |= IORING_SETUP_SQPOLL;
    params.sq_thread_idle = config.sqpoll_idle_ms;
  }
  const unsigned cq_hint =
      config.cq_entries_hint ? config.cq_entries_hint : config.entries * 2;
  params.flags |= IORING_SETUP_CQSIZE;
  params.cq_entries = cq_hint;

  const int fd = sys_io_uring_setup(config.entries, &params);
  if (fd < 0) {
    return Status::unsupported(std::string("io_uring_setup: ") +
                               ::strerror(-fd));
  }
  ring_fd_ = fd;
  setup_flags_ = params.flags;
  features_ = params.features;

  sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cq_ring_bytes_ =
      params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);

  const bool single_mmap = (features_ & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    const std::size_t bytes = std::max(sq_ring_bytes_, cq_ring_bytes_);
    sq_ring_mem_ = checked_mmap(bytes, fd, IORING_OFF_SQ_RING);
    if (sq_ring_mem_ == nullptr) {
      destroy();
      return Status::from_errno("mmap sq/cq ring");
    }
    sq_ring_bytes_ = bytes;
    cq_ring_mem_ = sq_ring_mem_;
    cq_ring_bytes_ = 0;  // owned by the SQ mapping
  } else {
    sq_ring_mem_ = checked_mmap(sq_ring_bytes_, fd, IORING_OFF_SQ_RING);
    if (sq_ring_mem_ == nullptr) {
      destroy();
      return Status::from_errno("mmap sq ring");
    }
    cq_ring_mem_ = checked_mmap(cq_ring_bytes_, fd, IORING_OFF_CQ_RING);
    if (cq_ring_mem_ == nullptr) {
      destroy();
      return Status::from_errno("mmap cq ring");
    }
  }

  auto* sq_base = static_cast<unsigned char*>(sq_ring_mem_);
  sq_khead_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
  sq_ktail_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
  sq_kflags_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.flags);
  sq_array_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
  sq_ring_mask_ =
      *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
  sq_entries_ =
      *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_entries);

  auto* cq_base = static_cast<unsigned char*>(cq_ring_mem_);
  cq_khead_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
  cq_ktail_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
  cqes_ = reinterpret_cast<io_uring_cqe*>(cq_base + params.cq_off.cqes);
  cq_ring_mask_ =
      *reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
  cq_entries_ =
      *reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_entries);

  sqe_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
  sqes_ = static_cast<io_uring_sqe*>(
      checked_mmap(sqe_bytes_, fd, IORING_OFF_SQES));
  if (sqes_ == nullptr) {
    destroy();
    return Status::from_errno("mmap sqes");
  }

  sqe_head_ = sqe_tail_ = load_relaxed(sq_ktail_);
  RS_DEBUG("ring created: fd=%d sq=%u cq=%u flags=0x%x features=0x%x",
           ring_fd_, sq_entries_, cq_entries_, setup_flags_, features_);
  return Status::ok();
}

void Ring::destroy() {
  if (sqes_ != nullptr) {
    ::munmap(sqes_, sqe_bytes_);
    sqes_ = nullptr;
  }
  if (cq_ring_mem_ != nullptr && cq_ring_mem_ != sq_ring_mem_) {
    ::munmap(cq_ring_mem_, cq_ring_bytes_);
  }
  cq_ring_mem_ = nullptr;
  if (sq_ring_mem_ != nullptr) {
    ::munmap(sq_ring_mem_, sq_ring_bytes_);
    sq_ring_mem_ = nullptr;
  }
  if (ring_fd_ >= 0) {
    ::close(ring_fd_);
    ring_fd_ = -1;
  }
}

unsigned Ring::sq_space_left() const {
  const unsigned head = load_acquire(sq_khead_);
  return sq_entries_ - (sqe_tail_ - head);
}

io_uring_sqe* Ring::get_sqe() {
  if (sqe_tail_ - load_acquire(sq_khead_) >= sq_entries_ &&
      !(sqpoll_enabled() && wait_sq_space())) {
    return nullptr;
  }
  io_uring_sqe* sqe = &sqes_[sqe_tail_ & sq_ring_mask_];
  ++sqe_tail_;
  memset(sqe, 0, sizeof(*sqe));
  return sqe;
}

bool Ring::wait_sq_space() {
  // The SQPOLL thread posts a batch's completions before it advances the
  // SQ head past that batch, so a caller that counts free slots by reaped
  // completions can briefly see a full SQ. IORING_ENTER_SQ_WAIT sleeps
  // until the thread consumes an entry; the attempt cap bounds the loop
  // against signals and kernels that reject the flag.
  constexpr unsigned kMaxAttempts = 64;
  for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
    unsigned flags = IORING_ENTER_SQ_WAIT;
    if (load_acquire(sq_kflags_) & IORING_SQ_NEED_WAKEUP) {
      flags |= IORING_ENTER_SQ_WAKEUP;
    }
    ++stats_.enter_calls;
    const int rc = sys_io_uring_enter(ring_fd_, 0, 0, flags, nullptr);
    if (sqe_tail_ - load_acquire(sq_khead_) < sq_entries_) return true;
    if (rc < 0 && rc != -EINTR) return false;
  }
  return false;
}

void Ring::prep_read(io_uring_sqe* sqe, int fd, void* buf, unsigned len,
                     std::uint64_t offset, std::uint64_t user_data) {
  sqe->opcode = IORING_OP_READ;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(buf);
  sqe->len = len;
  sqe->off = offset;
  sqe->user_data = user_data;
}

void Ring::prep_readv(io_uring_sqe* sqe, int fd, const iovec* iov,
                      unsigned nr, std::uint64_t offset,
                      std::uint64_t user_data) {
  sqe->opcode = IORING_OP_READV;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(iov);
  sqe->len = nr;
  sqe->off = offset;
  sqe->user_data = user_data;
}

void Ring::prep_read_fixed(io_uring_sqe* sqe, int fd, void* buf, unsigned len,
                           std::uint64_t offset, unsigned buf_index,
                           std::uint64_t user_data) {
  sqe->opcode = IORING_OP_READ_FIXED;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(buf);
  sqe->len = len;
  sqe->off = offset;
  sqe->buf_index = static_cast<std::uint16_t>(buf_index);
  sqe->user_data = user_data;
}

void Ring::prep_nop(io_uring_sqe* sqe, std::uint64_t user_data) {
  sqe->opcode = IORING_OP_NOP;
  sqe->fd = -1;
  sqe->user_data = user_data;
}

void Ring::set_fixed_file(io_uring_sqe* sqe, unsigned file_index) {
  sqe->fd = static_cast<std::int32_t>(file_index);
  sqe->flags |= IOSQE_FIXED_FILE;
}

void Ring::prep_accept(io_uring_sqe* sqe, int listen_fd, sockaddr* addr,
                       socklen_t* addrlen, int flags,
                       std::uint64_t user_data) {
  sqe->opcode = IORING_OP_ACCEPT;
  sqe->fd = listen_fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(addr);
  // The kernel reads the socklen pointer from the offset slot (addr2).
  sqe->off = reinterpret_cast<std::uint64_t>(addrlen);
  sqe->accept_flags = static_cast<std::uint32_t>(flags);
  sqe->user_data = user_data;
}

void Ring::prep_recv(io_uring_sqe* sqe, int fd, void* buf, unsigned len,
                     int flags, std::uint64_t user_data) {
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(buf);
  sqe->len = len;
  sqe->msg_flags = static_cast<std::uint32_t>(flags);
  sqe->user_data = user_data;
}

void Ring::prep_send(io_uring_sqe* sqe, int fd, const void* buf, unsigned len,
                     int flags, std::uint64_t user_data) {
  sqe->opcode = IORING_OP_SEND;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(buf);
  sqe->len = len;
  sqe->msg_flags = static_cast<std::uint32_t>(flags);
  sqe->user_data = user_data;
}

void Ring::prep_timeout(io_uring_sqe* sqe, const KernelTimespec* ts,
                        unsigned count, unsigned flags,
                        std::uint64_t user_data) {
  sqe->opcode = IORING_OP_TIMEOUT;
  sqe->fd = -1;
  sqe->addr = reinterpret_cast<std::uint64_t>(ts);
  sqe->len = 1;
  sqe->off = count;
  sqe->timeout_flags = flags;
  sqe->user_data = user_data;
}

Result<unsigned> Ring::submit() {
  const unsigned to_submit = sqe_tail_ - sqe_head_;
  if (to_submit == 0) return 0u;

  // Publish the prepared SQEs: fill the index array, then release the tail.
  unsigned ktail = load_relaxed(sq_ktail_);
  while (sqe_head_ != sqe_tail_) {
    sq_array_[ktail & sq_ring_mask_] = sqe_head_ & sq_ring_mask_;
    ++ktail;
    ++sqe_head_;
  }
  store_release(sq_ktail_, ktail);
  stats_.sqes_submitted += to_submit;

  if (sqpoll_enabled()) {
    // The kernel thread consumes the SQ on its own; we only need a wakeup
    // if it has gone idle.
    if (load_acquire(sq_kflags_) & IORING_SQ_NEED_WAKEUP) {
      ++stats_.enter_calls;
      const int rc = sys_io_uring_enter(ring_fd_, to_submit, 0,
                                        IORING_ENTER_SQ_WAKEUP, nullptr);
      if (rc < 0 && rc != -EINTR) {
        return Status::io_error(std::string("io_uring_enter(wakeup): ") +
                                ::strerror(-rc));
      }
    }
    return to_submit;
  }

  // -EBUSY means the kernel's CQ-overflow backlog is non-empty and must
  // drain before new SQEs are accepted; flush and retry a bounded number
  // of times (progress requires the consumer to free CQ space, so an
  // unbounded loop could spin forever against a full, undrained CQ). The
  // kernel may also legitimately consume a *prefix* of the batch before
  // hitting back-pressure; keep pushing the remainder within the same
  // attempt budget, and withdraw whatever never made it in so the caller
  // sees exactly `consumed` accepted and owns the rest again.
  unsigned consumed = 0;
  Status error = Status::ok();
  for (unsigned attempt = 0; attempt < 64; ++attempt) {
    ++stats_.enter_calls;
    const int rc =
        sys_io_uring_enter(ring_fd_, to_submit - consumed, 0, 0, nullptr);
    if (rc >= 0) {
      consumed += static_cast<unsigned>(rc);
      if (consumed >= to_submit) return to_submit;
      continue;  // partial prefix accepted; push the remainder
    }
    if (rc == -EINTR) continue;
    if (rc != -EBUSY) {
      error = Status::io_error(std::string("io_uring_enter(submit): ") +
                               ::strerror(-rc));
      break;
    }
    ++stats_.ebusy_retries;
    Status flushed = flush_cq_overflow();
    if (!flushed.is_ok()) {
      error = std::move(flushed);
      break;
    }
  }
  rewind_unsubmitted(to_submit - consumed);
  if (!error.is_ok()) {
    if (consumed > 0) return consumed;  // a prefix did go in: report it
    return error;
  }
  if (consumed > 0) return consumed;
  return Status::io_error(
      "io_uring_enter(submit): EBUSY persists (CQ overflow backlog not "
      "draining; consumer must reap completions)");
}

void Ring::rewind_unsubmitted(unsigned n) {
  if (n == 0) return;
  // Only the consumer side (us) writes sq_ktail_; outside io_uring_enter
  // the kernel never reads the SQ on a non-SQPOLL ring, so stepping the
  // tail back withdraws the unconsumed entries race-free.
  const unsigned ktail = load_relaxed(sq_ktail_);
  store_release(sq_ktail_, ktail - n);
  sqe_head_ -= n;
  sqe_tail_ -= n;
  stats_.sqes_submitted -= n;
}

Result<unsigned> Ring::submit_and_wait(unsigned min_complete) {
  const unsigned to_submit = sqe_tail_ - sqe_head_;
  unsigned ktail = load_relaxed(sq_ktail_);
  while (sqe_head_ != sqe_tail_) {
    sq_array_[ktail & sq_ring_mask_] = sqe_head_ & sq_ring_mask_;
    ++ktail;
    ++sqe_head_;
  }
  if (to_submit != 0) {
    store_release(sq_ktail_, ktail);
    stats_.sqes_submitted += to_submit;
  }

  unsigned flags = IORING_ENTER_GETEVENTS;
  if (sqpoll_enabled() &&
      (load_acquire(sq_kflags_) & IORING_SQ_NEED_WAKEUP)) {
    flags |= IORING_ENTER_SQ_WAKEUP;
  }
  for (;;) {
    ++stats_.enter_calls;
    const int rc =
        sys_io_uring_enter(ring_fd_, to_submit, min_complete, flags, nullptr);
    if (rc >= 0) return static_cast<unsigned>(rc);
    if (rc == -EINTR) continue;
    return Status::io_error(std::string("io_uring_enter(submit_and_wait): ") +
                            ::strerror(-rc));
  }
}

bool Ring::peek_cqe(Cqe* out) {
  const unsigned head = load_relaxed(cq_khead_);
  const unsigned tail = load_acquire(cq_ktail_);
  if (head == tail) {
    ++stats_.peek_spins;
    return false;
  }
  const io_uring_cqe& cqe = cqes_[head & cq_ring_mask_];
  out->user_data = cqe.user_data;
  out->res = cqe.res;
  out->flags = cqe.flags;
  store_release(cq_khead_, head + 1);
  ++stats_.cqes_reaped;
  return true;
}

unsigned Ring::peek_batch(std::span<Cqe> out) {
  const unsigned head = load_relaxed(cq_khead_);
  const unsigned tail = load_acquire(cq_ktail_);
  const unsigned available = tail - head;
  const unsigned n =
      std::min(available, static_cast<unsigned>(out.size()));
  if (n == 0) {
    ++stats_.peek_spins;
    return 0;
  }
  for (unsigned i = 0; i < n; ++i) {
    const io_uring_cqe& cqe = cqes_[(head + i) & cq_ring_mask_];
    out[i].user_data = cqe.user_data;
    out[i].res = cqe.res;
    out[i].flags = cqe.flags;
  }
  store_release(cq_khead_, head + n);
  stats_.cqes_reaped += n;
  return n;
}

Status Ring::wait_cqe(Cqe* out) {
  for (;;) {
    if (peek_cqe(out)) return Status::ok();
    RS_RETURN_IF_ERROR(enter_getevents(1));
  }
}

Status Ring::enter_getevents(unsigned min_complete) {
  for (;;) {
    ++stats_.enter_calls;
    const int rc = sys_io_uring_enter(ring_fd_, 0, min_complete,
                                      IORING_ENTER_GETEVENTS, nullptr);
    if (rc >= 0) return Status::ok();
    if (rc == -EINTR) continue;
    return Status::io_error(std::string("io_uring_enter(getevents): ") +
                            ::strerror(-rc));
  }
}

Status Ring::enter_getevents_timeout(unsigned min_complete,
                                     std::uint64_t timeout_ns) {
  if (features_ & IORING_FEAT_EXT_ARG) {
    KernelTimespec ts;
    ts.tv_sec = static_cast<std::int64_t>(timeout_ns / 1'000'000'000ULL);
    ts.tv_nsec = static_cast<std::int64_t>(timeout_ns % 1'000'000'000ULL);
    GeteventsArg arg;
    arg.ts = reinterpret_cast<std::uint64_t>(&ts);
    for (;;) {
      ++stats_.enter_calls;
      const int rc = sys_io_uring_enter_ext_arg(
          ring_fd_, 0, min_complete,
          IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg);
      if (rc >= 0 || rc == -ETIME) return Status::ok();
      if (rc == -EINTR) continue;  // remaining budget handled by caller
      return Status::io_error(
          std::string("io_uring_enter(getevents,timeout): ") +
          ::strerror(-rc));
    }
  }
  // Pre-5.11 fallback: sleep-poll the CQ in 100us steps. GETEVENTS with
  // min_complete=0 flushes any overflow backlog on each step.
  std::uint64_t waited_ns = 0;
  constexpr std::uint64_t kStepNs = 100'000;
  for (;;) {
    if (cq_ready() >= min_complete) return Status::ok();
    RS_RETURN_IF_ERROR(enter_getevents(0));
    if (cq_ready() >= min_complete) return Status::ok();
    if (waited_ns >= timeout_ns) return Status::ok();  // timed out
    const std::uint64_t step = std::min(kStepNs, timeout_ns - waited_ns);
    timespec ts{static_cast<time_t>(step / 1'000'000'000ULL),
                static_cast<long>(step % 1'000'000'000ULL)};
    ::nanosleep(&ts, nullptr);
    waited_ns += step;
  }
}

unsigned Ring::cq_ready() const {
  return load_acquire(cq_ktail_) - load_relaxed(cq_khead_);
}

bool Ring::cq_overflow_flagged() const {
  return (load_acquire(sq_kflags_) & IORING_SQ_CQ_OVERFLOW) != 0;
}

Status Ring::flush_cq_overflow() {
  if (!cq_overflow_flagged()) return Status::ok();
  ++stats_.overflow_flushes;
  // GETEVENTS with min_complete=0 makes the kernel move backlogged CQEs
  // into whatever CQ space the consumer has freed, without blocking.
  return enter_getevents(0);
}

Status Ring::register_buffers(std::span<const iovec> buffers) {
  const int rc =
      sys_io_uring_register(ring_fd_, IORING_REGISTER_BUFFERS, buffers.data(),
                            static_cast<unsigned>(buffers.size()));
  if (rc < 0) {
    return Status::io_error(std::string("register_buffers: ") +
                            ::strerror(-rc));
  }
  return Status::ok();
}

Status Ring::unregister_buffers() {
  const int rc =
      sys_io_uring_register(ring_fd_, IORING_UNREGISTER_BUFFERS, nullptr, 0);
  if (rc < 0) {
    return Status::io_error(std::string("unregister_buffers: ") +
                            ::strerror(-rc));
  }
  return Status::ok();
}

Status Ring::register_files(std::span<const int> fds) {
  const int rc =
      sys_io_uring_register(ring_fd_, IORING_REGISTER_FILES, fds.data(),
                            static_cast<unsigned>(fds.size()));
  if (rc < 0) {
    return Status::io_error(std::string("register_files: ") +
                            ::strerror(-rc));
  }
  return Status::ok();
}

Status Ring::unregister_files() {
  const int rc =
      sys_io_uring_register(ring_fd_, IORING_UNREGISTER_FILES, nullptr, 0);
  if (rc < 0) {
    return Status::io_error(std::string("unregister_files: ") +
                            ::strerror(-rc));
  }
  return Status::ok();
}

}  // namespace rs::uring
