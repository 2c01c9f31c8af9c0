// Ring: a from-scratch userspace io_uring implementation (the role
// liburing usually plays), sized for RingSampler's per-thread rings.
//
// Each sampling thread owns one Ring: a Submission Queue (SQ) it fills
// with read requests and a Completion Queue (CQ) it drains for results
// (paper §3.1, "each thread is assigned a dedicated pair of io_uring ring
// buffers"). The class encapsulates:
//   * ring setup and the shared-memory mmap layout (single- and
//     double-mmap kernels),
//   * the SQ producer / CQ consumer protocols with the required
//     acquire/release ordering against the kernel,
//   * SQE preparation for the opcodes the sampler needs,
//   * completion retrieval in three styles: non-blocking peek (the
//     paper's "completion polling mode" — no syscall), blocking wait
//     (io_uring_enter GETEVENTS), and batch drain,
//   * optional kernel-side submission polling (IORING_SETUP_SQPOLL),
//     which the paper lists as future work,
//   * registered buffers and files (io_uring_register).
//
// Thread-compatibility: a Ring must be used from one thread at a time;
// cross-thread parallelism comes from one Ring per thread.
#pragma once

#include <linux/io_uring.h>

#include <cstdint>
#include <span>
#include <sys/socket.h>
#include <sys/uio.h>

#include "util/common.h"
#include "util/status.h"

namespace rs::uring {

struct KernelTimespec;  // uring_syscalls.h

struct RingConfig {
  // SQ size; the kernel rounds up to a power of two. The paper's default
  // "ring size" is 512.
  unsigned entries = 512;
  // Kernel-side SQ polling (IORING_SETUP_SQPOLL). Avoids the submit
  // syscall entirely; needs kernel >= 5.11 for unprivileged use.
  bool sqpoll = false;
  unsigned sqpoll_idle_ms = 1000;
  // Ask for a CQ twice the SQ size so bursts of completions can't
  // overflow while the next I/O group is being prepared.
  unsigned cq_entries_hint = 0;  // 0 -> 2 * entries
};

// A completed I/O: user_data echoes the SQE's, res is bytes-read or
// -errno, exactly as the kernel reports it.
struct Cqe {
  std::uint64_t user_data = 0;
  std::int32_t res = 0;
  std::uint32_t flags = 0;
};

// Counters for understanding syscall behavior (micro benches, tests).
struct RingStats {
  std::uint64_t sqes_submitted = 0;
  std::uint64_t enter_calls = 0;
  std::uint64_t cqes_reaped = 0;
  std::uint64_t peek_spins = 0;  // empty peeks (busy-poll iterations)
  std::uint64_t overflow_flushes = 0;  // CQ-overflow backlog drains
  std::uint64_t ebusy_retries = 0;     // submit retries after -EBUSY
};

class Ring {
 public:
  Ring() = default;
  ~Ring();

  Ring(Ring&& other) noexcept;
  Ring& operator=(Ring&& other) noexcept;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  static Result<Ring> create(const RingConfig& config);

  bool valid() const { return ring_fd_ >= 0; }
  unsigned sq_entries() const { return sq_entries_; }
  unsigned cq_entries() const { return cq_entries_; }
  bool sqpoll_enabled() const { return (setup_flags_ & IORING_SETUP_SQPOLL) != 0; }
  // IORING_FEAT_* bits the kernel reported at setup.
  std::uint32_t features() const { return features_; }

  // ---- Submission ----

  // Number of SQE slots currently free (not yet handed out).
  unsigned sq_space_left() const;
  // Count of prepared-but-unsubmitted SQEs.
  unsigned sq_pending() const { return sqe_tail_ - sqe_head_; }

  // Grabs the next free SQE, zeroed; nullptr if the SQ is full. On an
  // SQPOLL ring a full SQ is first waited out (bounded), since the
  // kernel thread may not have advanced the head past entries whose
  // completions were already reaped.
  io_uring_sqe* get_sqe();

  // Opcode preparation (on an SQE from get_sqe()).
  static void prep_read(io_uring_sqe* sqe, int fd, void* buf, unsigned len,
                        std::uint64_t offset, std::uint64_t user_data);
  static void prep_readv(io_uring_sqe* sqe, int fd, const iovec* iov,
                         unsigned nr, std::uint64_t offset,
                         std::uint64_t user_data);
  // Read into a buffer registered via register_buffers().
  static void prep_read_fixed(io_uring_sqe* sqe, int fd, void* buf,
                              unsigned len, std::uint64_t offset,
                              unsigned buf_index, std::uint64_t user_data);
  static void prep_nop(io_uring_sqe* sqe, std::uint64_t user_data);
  // Use an fd registered via register_files(); `fd` becomes an index.
  static void set_fixed_file(io_uring_sqe* sqe, unsigned file_index);

  // ---- Network opcodes (net::Server event loops, paper §4.4) ----
  //
  // These let accepted connections' socket I/O share a ring with the
  // sampler's disk reads. Kernel support is not implied by op_read:
  // callers check uring::probe_features() (op_accept/op_recv/op_send/
  // op_timeout) and fall back to a psync-style socket loop otherwise.

  // Single-shot accept on a listening socket; res is the new connection
  // fd or -errno. `addr`/`addrlen` may be null when the peer address is
  // not wanted; both must outlive the completion otherwise.
  static void prep_accept(io_uring_sqe* sqe, int listen_fd, sockaddr* addr,
                          socklen_t* addrlen, int flags,
                          std::uint64_t user_data);
  // recv(2): res is bytes received (0 = peer closed) or -errno.
  static void prep_recv(io_uring_sqe* sqe, int fd, void* buf, unsigned len,
                        int flags, std::uint64_t user_data);
  // send(2): res is bytes sent (possibly short) or -errno.
  static void prep_send(io_uring_sqe* sqe, int fd, const void* buf,
                        unsigned len, int flags, std::uint64_t user_data);
  // Standalone timer: completes with -ETIME when `ts` elapses, or 0 if
  // `count` other completions posted first (count = 0 means "only the
  // timer"). `ts` must outlive the completion — it is read by the kernel
  // asynchronously, not copied at submit.
  static void prep_timeout(io_uring_sqe* sqe, const KernelTimespec* ts,
                           unsigned count, unsigned flags,
                           std::uint64_t user_data);

  // Publishes prepared SQEs to the kernel. Returns the number accepted,
  // and leaves the SQ in a definite state the caller can account for:
  //   * ok(n == prepared): everything was accepted.
  //   * ok(n < prepared): the kernel accepted a prefix (persistent CQ
  //     back-pressure or resource shortage survived the retry budget);
  //     the remainder has been *withdrawn* — unpublished and dropped —
  //     so the caller must re-prep anything it still wants issued.
  //   * error: nothing was accepted; every prepared SQE was withdrawn.
  // With SQPOLL the kernel thread owns published SQEs, so withdrawal is
  // impossible: submit() always reports every prepared SQE as accepted,
  // and a failed idle-wakeup surfaces as an error *after* ownership has
  // transferred (completions will still arrive).
  Result<unsigned> submit();

  // Drops SQEs prepared via get_sqe() but not yet published by submit().
  // Test hook and abort path; a no-op when nothing is pending.
  void drop_unsubmitted() { sqe_tail_ = sqe_head_; }

  // Submit and block until at least `min_complete` completions are
  // available (single io_uring_enter with GETEVENTS).
  Result<unsigned> submit_and_wait(unsigned min_complete);

  // ---- Completion ----

  // Non-blocking: pops one CQE if available. This is the paper's
  // completion-polling primitive — it reads only shared memory, issuing
  // no syscall.
  bool peek_cqe(Cqe* out);

  // Pops up to `max` CQEs without blocking; returns the count.
  unsigned peek_batch(std::span<Cqe> out);

  // Blocks (io_uring_enter GETEVENTS) until one CQE is available.
  Status wait_cqe(Cqe* out);

  // Blocks until at least one CQE is available or `timeout_ns` elapses
  // (returns OK either way — peek afterwards to see which). Uses
  // IORING_ENTER_EXT_ARG when the kernel reports IORING_FEAT_EXT_ARG;
  // otherwise degrades to a sleep-poll loop in 100us steps.
  Status enter_getevents_timeout(unsigned min_complete,
                                 std::uint64_t timeout_ns);

  // Number of completions currently sitting in the CQ.
  unsigned cq_ready() const;

  // ---- CQ overflow ----
  //
  // With IORING_FEAT_NODROP the kernel parks completions it cannot post
  // to a full CQ on an internal backlog and raises IORING_SQ_CQ_OVERFLOW
  // in the SQ flags (it also answers further submits with -EBUSY, which
  // submit() absorbs by flushing). flush_cq_overflow() asks the kernel
  // to move backlogged CQEs into CQ space freed by the consumer.
  bool cq_overflow_flagged() const;
  Status flush_cq_overflow();

  // ---- Registration ----

  Status register_buffers(std::span<const iovec> buffers);
  Status unregister_buffers();
  Status register_files(std::span<const int> fds);
  Status unregister_files();

  const RingStats& stats() const { return stats_; }
  void reset_stats() { stats_ = RingStats{}; }

 private:
  Status init(const RingConfig& config);
  void destroy();
  Status enter_getevents(unsigned min_complete);
  // SQPOLL only: waits for the kernel thread to free an SQ slot; false
  // if none freed within the attempt cap.
  bool wait_sq_space();
  // Un-publishes the most recent `n` published-but-unconsumed SQEs (non-
  // SQPOLL only: the kernel reads the SQ solely inside io_uring_enter, so
  // entries it did not consume can be withdrawn by stepping the tail
  // back) and forgets their preparation.
  void rewind_unsubmitted(unsigned n);

  int ring_fd_ = -1;
  unsigned setup_flags_ = 0;
  std::uint32_t features_ = 0;

  // SQ ring shared memory.
  void* sq_ring_mem_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  unsigned* sq_khead_ = nullptr;
  unsigned* sq_ktail_ = nullptr;
  unsigned* sq_kflags_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned sq_ring_mask_ = 0;
  unsigned sq_entries_ = 0;

  // SQE array shared memory.
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sqe_bytes_ = 0;

  // CQ ring shared memory (aliases sq_ring_mem_ on single-mmap kernels).
  void* cq_ring_mem_ = nullptr;
  std::size_t cq_ring_bytes_ = 0;
  unsigned* cq_khead_ = nullptr;
  unsigned* cq_ktail_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;
  unsigned cq_ring_mask_ = 0;
  unsigned cq_entries_ = 0;

  // Local SQE cursor: head tracks what we've published, tail what we've
  // handed out via get_sqe().
  unsigned sqe_head_ = 0;
  unsigned sqe_tail_ = 0;

  RingStats stats_;
};

}  // namespace rs::uring
