#include "io/uring_backend.h"

#include <string.h>

#include <numeric>

#include "obs/trace.h"
#include "uring/probe.h"
#include "util/log.h"

namespace rs::io {

UringBackend::UringBackend(uring::Ring ring,
                           std::unique_ptr<FixedBufferPool> pool, int fd,
                           unsigned capacity, WaitMode wait_mode,
                           bool fixed_file, bool fixed_requested)
    : pool_(std::move(pool)),
      ring_(std::move(ring)),
      fd_(fd),
      capacity_(capacity),
      wait_mode_(wait_mode),
      fixed_file_(fixed_file),
      fixed_requested_(fixed_requested) {
  instruments_ = IoInstruments::for_backend(name());
  ring_stats_exporter_ = RingStatsExporter(name());
  // Process-global (not per-backend-name) counters: the ablation and the
  // CI smoke assert on them regardless of which wait-mode variant ran.
  fixed_reads_ = obs::Registry::global().counter("io.fixed_reads");
  fixed_fallbacks_ = obs::Registry::global().counter("io.fixed_fallbacks");
  // One slot per SQ entry — in_flight_ <= capacity_, so the freelist can
  // never run dry while the capacity check in submit() holds.
  pending_.resize(capacity_);
  free_slots_.resize(capacity_);
  std::iota(free_slots_.begin(), free_slots_.end(), 0u);
  batch_slots_.reserve(capacity_);
  batch_fixed_.reserve(capacity_);
}

Result<std::unique_ptr<UringBackend>> UringBackend::create(
    int fd, unsigned queue_depth, WaitMode wait_mode, bool sqpoll,
    bool register_file, FixedBufferMode fixed_buffers,
    std::uint64_t fixed_arena_bytes) {
  uring::RingConfig config;
  config.entries = queue_depth;
  config.sqpoll = sqpoll;
  RS_ASSIGN_OR_RETURN(uring::Ring ring, uring::Ring::create(config));
  if (register_file) {
    RS_RETURN_IF_ERROR(ring.register_files({&fd, 1}));
  }

  const bool want_fixed =
      fixed_buffers != FixedBufferMode::kOff && fixed_arena_bytes > 0;
  std::unique_ptr<FixedBufferPool> pool;
  if (want_fixed) {
    if (!uring::probe_features().op_read_fixed ||
        uring::read_fixed_disabled()) {
      if (fixed_buffers == FixedBufferMode::kOn) {
        RS_WARN(
            "fixed buffers requested but READ_FIXED is unavailable; "
            "using plain reads");
      }
    } else {
      Status setup = Status::ok();
      Result<std::unique_ptr<FixedBufferPool>> made =
          FixedBufferPool::create(fixed_arena_bytes);
      if (made.is_ok()) {
        pool = std::move(made).value();
        setup = pool->register_with(ring);
      } else {
        setup = made.status();
      }
      if (!setup.is_ok()) {
        // Registration fails under RLIMIT_MEMLOCK or memcg pressure on
        // some hosts; the plain-read path is always correct, so degrade
        // rather than refuse (mirroring make_backend_auto's ladder).
        RS_WARN("fixed-buffer arena setup failed (%s); using plain reads",
                setup.to_string().c_str());
        pool.reset();
      }
    }
  }

  // The kernel may round entries up; expose the real capacity.
  const unsigned capacity = ring.sq_entries();
  return std::unique_ptr<UringBackend>(
      new UringBackend(std::move(ring), std::move(pool), fd, capacity,
                       wait_mode, register_file, want_fixed));
}

Status UringBackend::submit(std::span<const ReadRequest> requests) {
  if (requests.empty()) return Status::ok();
  if (requests.size() > capacity_ - in_flight_) {
    return Status::invalid("UringBackend::submit: batch of " +
                           std::to_string(requests.size()) +
                           " exceeds free capacity " +
                           std::to_string(capacity_ - in_flight_));
  }
  RS_OBS_SPAN("io", "uring_submit", "requests",
              static_cast<std::int64_t>(requests.size()));
  // One stamp for the whole batch: submission is batched by design, and
  // SQE prep is nanoseconds next to the device round-trip we measure.
  const std::uint64_t submit_ns = io_timing_enabled() ? obs::now_ns() : 0;
  batch_slots_.clear();
  batch_fixed_.clear();
  for (const ReadRequest& req : requests) {
    io_uring_sqe* sqe = ring_.get_sqe();
    if (sqe == nullptr) {
      // Only reachable when an SQPOLL thread stops consuming entries:
      // withdraw this batch and hand its slots back.
      ring_.drop_unsubmitted();
      free_slots_.insert(free_slots_.end(), batch_slots_.begin(),
                         batch_slots_.end());
      return Status::io_error("io_uring SQ stayed full with " +
                              std::to_string(in_flight_) + " in flight");
    }
    // The SQE carries the slot index; the caller's user_data is parked in
    // the slot and restored on completion (see drain_cq).
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    pending_[slot] = PendingRead{req.user_data, submit_ns, req.len};
    unsigned buf_index = 0;
    const bool fixed =
        pool_ != nullptr && pool_->resolve(req.buf, req.len, &buf_index);
    if (fixed) {
      uring::Ring::prep_read_fixed(sqe, fd_, req.buf, req.len, req.offset,
                                   buf_index, slot);
    } else {
      uring::Ring::prep_read(sqe, fd_, req.buf, req.len, req.offset, slot);
    }
    if (fixed_file_) uring::Ring::set_fixed_file(sqe, 0);
    batch_slots_.push_back(slot);
    batch_fixed_.push_back(fixed ? 1 : 0);
  }

  unsigned accepted = 0;
  Status submit_status = Status::ok();
  if (submit_failures_to_inject_ > 0) {
    --submit_failures_to_inject_;
    ring_.drop_unsubmitted();
    submit_status = Status::io_error("injected submit failure (test hook)");
  } else {
    Result<unsigned> submitted = ring_.submit();
    if (submitted.is_ok()) {
      accepted = submitted.value();
    } else {
      submit_status = submitted.status();
      // Ring::submit's error contract: non-SQPOLL withdrew every prepped
      // SQE; SQPOLL transferred ownership of all of them before the
      // wakeup failed, so their completions are still coming and the
      // slots must stay live.
      accepted = ring_.sqpoll_enabled()
                     ? static_cast<unsigned>(requests.size())
                     : 0;
    }
  }

  // Slots for the withdrawn suffix go back to the freelist; without this
  // a failed or partial submit leaks capacity until the backend is torn
  // down (in_flight_ stays honest but free_slots_ shrinks forever).
  for (std::size_t i = requests.size(); i > accepted; --i) {
    free_slots_.push_back(batch_slots_[i - 1]);
  }
  in_flight_ += accepted;
  if (accepted > 0) {
    std::uint64_t bytes = 0;
    unsigned fixed_n = 0;
    for (unsigned i = 0; i < accepted; ++i) {
      bytes += requests[i].len;
      fixed_n += batch_fixed_[i];
    }
    stats_.add_submission(accepted, bytes);
    instruments_.requests.add(accepted);
    instruments_.bytes_requested.add(bytes);
    if (fixed_n > 0) fixed_reads_.add(fixed_n);
    if (fixed_requested_ && accepted > fixed_n) {
      fixed_fallbacks_.add(accepted - fixed_n);
    }
  }
  // Per-batch io.uring.* flush: covers this submit plus any waits since
  // the previous batch, keeping the registry's syscall counters live.
  ring_stats_exporter_.flush(ring_.stats());
  if (!submit_status.is_ok()) return submit_status;
  if (accepted != requests.size()) {
    return Status::io_error("io_uring accepted " + std::to_string(accepted) +
                            " of " + std::to_string(requests.size()) +
                            " SQEs; remainder withdrawn");
  }
  return Status::ok();
}

unsigned UringBackend::drain_cq(std::span<Completion> out) {
  std::size_t n = 0;
  uring::Cqe cqe;
  for (;;) {
    while (n < out.size() && ring_.peek_cqe(&cqe)) {
      const auto slot = static_cast<std::size_t>(cqe.user_data);
      RS_CHECK_MSG(slot < pending_.size(), "CQE slot index out of range");
      const PendingRead& entry = pending_[slot];
      out[n].user_data = entry.user_data;
      out[n].result = cqe.res;
      if (cqe.res < 0) {
        ++stats_.io_errors;
        instruments_.errors.add();
      } else {
        stats_.bytes_completed += static_cast<std::uint64_t>(cqe.res);
        if (static_cast<std::uint32_t>(cqe.res) < entry.len) {
          ++stats_.io_errors;  // short read
          instruments_.errors.add();
        }
      }
      if (entry.submit_ns != 0) {
        // Failures record into a separate histogram: an instantly-posted
        // -EIO would otherwise drag the success percentiles down (short
        // reads waited on the device like any other and stay in the
        // success histogram).
        const std::uint64_t lat = obs::now_ns() - entry.submit_ns;
        if (cqe.res < 0) {
          instruments_.error_latency.record_ns(lat);
        } else {
          instruments_.completion_latency.record_ns(lat);
        }
      }
      free_slots_.push_back(static_cast<std::uint32_t>(slot));
      ++n;
    }
    // The CQ we just consumed may have been hiding a kernel-side
    // overflow backlog; flush it into the freed space and keep reaping.
    if (n >= out.size() || !ring_.cq_overflow_flagged()) break;
    if (!ring_.flush_cq_overflow().is_ok()) break;
    if (ring_.cq_ready() == 0) break;  // flush made no progress
  }
  const auto count = static_cast<unsigned>(n);
  in_flight_ -= count;
  stats_.completions += count;
  return count;
}

Result<unsigned> UringBackend::poll(std::span<Completion> out) {
  return drain_cq(out);
}

Result<unsigned> UringBackend::wait(std::span<Completion> out) {
  if (in_flight_ == 0 || out.empty()) return 0u;
  RS_OBS_SPAN("io", "uring_wait");
  for (;;) {
    const unsigned n = drain_cq(out);
    if (n > 0) return n;
    if (wait_mode_ == WaitMode::kBusyPoll) {
      // Completion polling (paper §3.1): spin on the shared CQ tail; the
      // kernel posts completions without us entering it.
      continue;
    }
    RS_ASSIGN_OR_RETURN(unsigned reaped, ring_.submit_and_wait(1));
    (void)reaped;
  }
}

Result<unsigned> UringBackend::wait_for(std::span<Completion> out,
                                        std::uint64_t timeout_ns) {
  if (in_flight_ == 0 || out.empty()) return 0u;
  RS_OBS_SPAN("io", "uring_wait");
  const std::uint64_t deadline = obs::now_ns() + timeout_ns;
  unsigned spins = 0;
  for (;;) {
    const unsigned n = drain_cq(out);
    if (n > 0) return n;
    if (wait_mode_ == WaitMode::kBusyPoll) {
      // Spin as in wait(), but check the clock every so often — a clock
      // read per empty peek would dominate the busy-poll loop.
      if ((++spins & 1023u) == 0 && obs::now_ns() >= deadline) return 0u;
      continue;
    }
    const std::uint64_t now = obs::now_ns();
    if (now >= deadline) return 0u;
    RS_RETURN_IF_ERROR(ring_.enter_getevents_timeout(1, deadline - now));
  }
}

std::string UringBackend::name() const {
  std::string base = "io_uring";
  base += wait_mode_ == WaitMode::kBusyPoll ? "+cqpoll" : "+irq";
  if (ring_.sqpoll_enabled()) base += "+sqpoll";
  if (pool_ != nullptr && pool_->registered()) base += "+fixedbuf";
  return base;
}

}  // namespace rs::io
