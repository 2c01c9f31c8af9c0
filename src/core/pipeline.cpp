#include "core/pipeline.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "io/fixed_buffer_pool.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace rs::core {

Result<std::unique_ptr<ReadPipeline>> ReadPipeline::create(
    io::IoBackend& backend, BlockCache* cache,
    const PipelineOptions& options, MemoryBudget& budget) {
  RS_CHECK(options.group_size > 0);
  if (!std::has_single_bit(options.block_bytes)) {
    return Status::invalid("pipeline block size " +
                           std::to_string(options.block_bytes) +
                           " is not a power of two");
  }
  if (options.group_size > backend.capacity()) {
    return Status::invalid("pipeline group size " +
                           std::to_string(options.group_size) +
                           " exceeds backend capacity " +
                           std::to_string(backend.capacity()));
  }
  // Staging buffers come from the backend's registered fixed-buffer
  // arena when it has one with room — reads into them then take the
  // zero-setup READ_FIXED path. Heap-allocated otherwise. Carved slices
  // are not charged to the budget: the whole arena was charged once when
  // the backend was built.
  const std::uint64_t block_part =
      static_cast<std::uint64_t>(options.group_size) * options.block_bytes;
  struct BlockCarve {
    AlignedPtr owned;
    unsigned char* view = nullptr;
  };
  BlockCarve carve[2];
  unsigned pool_served = 0;
  io::FixedBufferPool* pool = backend.fixed_pool();
  const std::size_t align =
      std::max<std::size_t>(kDirectIoAlign, options.block_bytes);
  for (BlockCarve& c : carve) {
    if (pool != nullptr) {
      auto carved = pool->allocate(static_cast<std::size_t>(block_part),
                                   align);
      if (carved.is_ok()) {
        c.view = carved.value().data();
        ++pool_served;
        continue;
      }
    }
    c.owned =
        aligned_alloc_bytes(static_cast<std::size_t>(block_part), align);
    c.view = c.owned.get();
  }

  // Double-buffered scratch: items + requests + ref table, for both
  // groups, plus whichever block buffers live on the heap.
  const std::uint64_t per_group =
      options.group_size * (sizeof(SampleItem) + sizeof(io::ReadRequest) +
                            sizeof(std::uint32_t) + sizeof(RetryState));
  const std::uint64_t scratch_bytes =
      2 * per_group + (2 - pool_served) * block_part;
  RS_RETURN_IF_ERROR(budget.charge(scratch_bytes, "pipeline scratch"));

  auto pipeline = std::unique_ptr<ReadPipeline>(
      new ReadPipeline(backend, cache, options, budget, scratch_bytes));
  for (int g = 0; g < 2; ++g) {
    Group& group = pipeline->groups_[g];
    group.items.resize(options.group_size);
    group.requests.resize(options.group_size);
    group.ref_begin.resize(options.group_size + 1);
    group.retry.resize(options.group_size);
    group.block_buf = std::move(carve[g].owned);
    group.block_view = carve[g].view;
  }
  return pipeline;
}

ReadPipeline::ReadPipeline(io::IoBackend& backend, BlockCache* cache,
                           const PipelineOptions& options,
                           MemoryBudget& budget, std::uint64_t scratch_bytes)
    : backend_(backend),
      cache_(cache),
      options_(options),
      budget_(budget),
      scratch_bytes_(scratch_bytes) {
  auto& registry = obs::Registry::global();
  groups_counter_ = registry.counter("pipeline.groups");
  items_counter_ = registry.counter("pipeline.items");
  read_ops_counter_ = registry.counter("pipeline.read_ops");
  bytes_counter_ = registry.counter("pipeline.bytes_read");
  cache_hits_counter_ = registry.counter("pipeline.cache_hits");
  retries_counter_ = registry.counter("io.retries");
  stalls_counter_ = registry.counter("io.stalls");
  deadline_aborts_counter_ = registry.counter("io.deadline_aborts");
}

ReadPipeline::~ReadPipeline() { budget_.release(scratch_bytes_); }

std::size_t ReadPipeline::fill_group(ItemSource& source, Group& group,
                                     NodeId* values) {
  ScopedAccumulator phase(stats_.prepare_seconds);
  RS_OBS_SPAN("pipeline", "prepare");
  const std::size_t n =
      source.next(std::span<SampleItem>(group.items.data(),
                                        options_.group_size));
  group.num_items = n;
  group.num_requests = 0;
  if (n == 0) return 0;
  stats_.items += n;
  items_counter_.add(n);

  // Probe the cache first; survivors are coalesced by block. Block
  // sizes are powers of two, so block numbers are shifts, not divisions.
  const std::uint32_t bs = options_.block_bytes;
  const int block_shift = std::countr_zero(bs);
  auto block_of = [block_shift](const SampleItem& item) {
    return item.edge_idx * kEdgeEntryBytes >> block_shift;
  };
  std::size_t misses = 0;
  bool in_block_order = true;
  std::uint64_t prev_block = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SampleItem item = group.items[i];
    const std::uint64_t block = block_of(item);
    if (cache_ != nullptr &&
        cache_->lookup(block,
                       static_cast<std::uint32_t>(
                           item.edge_idx * kEdgeEntryBytes & (bs - 1)),
                       kEdgeEntryBytes, values + item.slot)) {
      ++stats_.cache_hits;
      continue;
    }
    in_block_order = in_block_order && block >= prev_block;
    prev_block = block;
    group.items[misses++] = item;  // compact misses to the front
  }
  cache_hits_counter_.add(n - misses);
  if (misses == 0) return n;

  // Layers >= 1 plan sorted targets with per-target draws in edge order,
  // so on a natural-layout graph the misses already arrive in block
  // order. Only the rest (layer 0's shuffled batch, reorganized layouts,
  // prebuilt plans) pay for a sort.
  if (!in_block_order) {
    std::sort(group.items.begin(),
              group.items.begin() + static_cast<std::ptrdiff_t>(misses),
              [](const SampleItem& a, const SampleItem& b) {
                return a.edge_idx < b.edge_idx;
              });
  }

  // One request per *extent*: a maximal run of adjacent distinct blocks
  // (capped at max_extent_blocks), read in one shot into consecutive
  // buffer slots. With merging disabled this degenerates to one request
  // per distinct block.
  const std::uint32_t max_blocks =
      std::max<std::uint32_t>(1, options_.max_extent_blocks);
  std::size_t r = 0;          // request index
  std::size_t slot_base = 0;  // buffer slots consumed
  std::size_t i = 0;
  auto* buf = group.block_view;
  while (i < misses) {
    const std::uint64_t first_block = block_of(group.items[i]);
    group.ref_begin[r] = static_cast<std::uint32_t>(i);
    std::uint64_t last_block = first_block;
    std::uint32_t extent_blocks = 1;
    ++i;
    while (i < misses) {
      const std::uint64_t block = block_of(group.items[i]);
      if (block == last_block) {  // same block, same extent
        ++i;
        continue;
      }
      if (block == last_block + 1 && extent_blocks < max_blocks) {
        last_block = block;
        ++extent_blocks;
        ++i;
        continue;
      }
      break;
    }
    io::ReadRequest& req = group.requests[r];
    req.offset = first_block * bs;
    req.len = extent_blocks * bs;
    req.buf = buf + slot_base * bs;
    req.user_data = r;
    slot_base += extent_blocks;
    ++r;
  }
  group.ref_begin[r] = static_cast<std::uint32_t>(misses);
  group.num_requests = r;
  group.num_items = misses;  // items now means "miss items to scatter"
  return n;
}

Status ReadPipeline::submit_group(Group& group) {
  if (group.num_requests == 0) return Status::ok();
  std::fill(group.retry.begin(),
            group.retry.begin() +
                static_cast<std::ptrdiff_t>(group.num_requests),
            RetryState{});
  ScopedAccumulator phase(stats_.submit_seconds);
  RS_OBS_SPAN("pipeline", "submit", "requests",
              static_cast<std::uint64_t>(group.num_requests));
  ++stats_.groups;
  groups_counter_.add();
  stats_.read_ops += group.num_requests;
  read_ops_counter_.add(group.num_requests);
  std::uint64_t group_bytes = 0;
  for (std::size_t i = 0; i < group.num_requests; ++i) {
    group_bytes += group.requests[i].len;
  }
  stats_.bytes_read += group_bytes;
  bytes_counter_.add(group_bytes);
  return backend_.submit(
      std::span<const io::ReadRequest>(group.requests.data(),
                                       group.num_requests));
}

Status ReadPipeline::handle_completion(const io::Completion& completion,
                                       Group& group, NodeId* values) {
  const auto r = static_cast<std::size_t>(completion.user_data);
  const io::ReadRequest& req = group.requests[r];
  RetryState& st = group.retry[r];
  if (st.attempts == 0) st.attempts = 1;  // the initial submission
  const std::int32_t res = completion.result;

  bool retry = false;
  if (res < 0) {
    switch (io::retry_class(-res)) {
      case io::RetryClass::kTransient:
        retry = ++st.transient <= io::kTransientRetryCap;
        break;
      case io::RetryClass::kRetryable:
        retry = st.attempts < options_.max_io_attempts;
        if (retry) ++st.attempts;
        break;
      case io::RetryClass::kPermanent:
        break;
    }
    if (!retry) {
      if (deferred_error_.is_ok()) {
        deferred_error_ = Status::io_error(
            "read at offset " + std::to_string(req.offset) +
            " failed: errno=" + std::to_string(-res) + " after " +
            std::to_string(st.attempts) + " attempts");
      }
      return Status::ok();
    }
  } else {
    st.done += static_cast<std::uint32_t>(res);
    if (st.done < req.len) {
      if (extent_items_delivered(group, r, st.done)) {
        // Short read at EOF: extents are built from block arithmetic, so
        // the file's last extent can end past its payload and will never
        // fill completely — retrying re-delivers the same prefix until
        // attempts exhaust. When every referenced entry lies within the
        // delivered prefix the read is complete for our purposes; the
        // cache fill below skips the partially-populated tail block.
      } else {
        // Short read — legal per POSIX on a regular file. Resume from
        // the delivered prefix: the bytes we have are real, only the
        // tail is re-requested.
        retry = st.attempts < options_.max_io_attempts;
        if (!retry) {
          if (deferred_error_.is_ok()) {
            deferred_error_ = Status::io_error(
                "short read at offset " + std::to_string(req.offset) + ": " +
                std::to_string(st.done) + " of " + std::to_string(req.len) +
                " bytes after " + std::to_string(st.attempts) + " attempts");
          }
          return Status::ok();
        }
        ++st.attempts;
      }
    }
  }

  if (retry) {
    ++stats_.retries;
    retries_counter_.add();
    io::retry_backoff_sleep(st.attempts - 1, options_.retry_backoff_initial_us,
                            options_.retry_backoff_max_us);
    // Resuming at the raw delivered prefix would issue a read whose
    // offset/len/buf are not block-aligned — EINVAL under O_DIRECT.
    // Restart from the containing block boundary instead; the few
    // re-delivered bytes are idempotent.
    st.done =
        static_cast<std::uint32_t>(align_down(st.done, options_.block_bytes));
    io::ReadRequest tail = req;
    tail.offset += st.done;
    tail.len -= st.done;
    tail.buf = static_cast<unsigned char*>(req.buf) + st.done;
    // The completion just reaped freed a backend slot, so this single
    // re-submission can never exceed capacity.
    return backend_.submit({&tail, 1});
  }

  // Scatter the extent's sampled entries into their slots (offsets are
  // relative to the extent's first byte).
  const auto* extent = static_cast<const unsigned char*>(req.buf);
  const std::uint32_t bs = options_.block_bytes;
  for (std::uint32_t i = group.ref_begin[r]; i < group.ref_begin[r + 1];
       ++i) {
    const SampleItem item = group.items[i];
    const std::uint64_t within =
        item.edge_idx * kEdgeEntryBytes - req.offset;
    std::memcpy(values + item.slot, extent + within, kEdgeEntryBytes);
  }
  if (cache_ != nullptr) {
    // Only fully-populated blocks may enter the cache: an accepted EOF
    // short read leaves the tail block partially filled, and inserting
    // it would let later lookups read the stale bytes past the
    // delivered prefix with no way to tell.
    const std::uint32_t delivered = std::min(st.done, req.len);
    for (std::uint32_t b = 0;
         (b + 1) * static_cast<std::uint64_t>(bs) <= delivered; ++b) {
      cache_->insert(req.offset / bs + b, extent + b * bs);
    }
  }
  return Status::ok();
}

bool ReadPipeline::extent_items_delivered(const Group& group, std::size_t r,
                                          std::uint32_t delivered) const {
  const io::ReadRequest& req = group.requests[r];
  for (std::uint32_t i = group.ref_begin[r]; i < group.ref_begin[r + 1];
       ++i) {
    const std::uint64_t end = group.items[i].edge_idx * kEdgeEntryBytes +
                              kEdgeEntryBytes - req.offset;
    if (end > delivered) return false;
  }
  return true;
}

void ReadPipeline::quiesce() {
  // Abort path: the group's buffers are about to be recycled (or freed),
  // but the kernel may still own in-flight reads aimed at them. Discard-
  // drain with a bounded patience budget; completions that never arrive
  // (hung device) are abandoned with a warning rather than blocking the
  // error return forever.
  std::array<io::Completion, 128> completions;
  constexpr std::uint64_t kSliceNs = 10'000'000;   // 10 ms
  constexpr unsigned kMaxIdleSlices = 50;          // ~0.5 s of no progress
  unsigned idle = 0;
  while (backend_.in_flight() > 0 && idle < kMaxIdleSlices) {
    auto drained = backend_.wait_for(completions, kSliceNs);
    if (!drained.is_ok()) break;
    if (drained.value() == 0) {
      ++idle;
      // Synchronous backends' wait_for returns instantly; make each idle
      // slice cost real time so the budget is time-bounded, not
      // iteration-bounded.
      timespec ts{0, 1'000'000};
      ::nanosleep(&ts, nullptr);
    } else {
      idle = 0;
    }
  }
  if (backend_.in_flight() > 0) {
    RS_WARN("pipeline quiesce: abandoning %u in-flight reads on %s",
            backend_.in_flight(), backend_.name().c_str());
  }
}

Status ReadPipeline::drain_group(Group& group, NodeId* values) {
  ScopedAccumulator phase(stats_.drain_seconds);
  RS_OBS_SPAN("pipeline", "drain");
  std::array<io::Completion, 128> completions;
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(options_.wait_deadline_ms) * 1'000'000;
  // Slice blocking waits so the stall clock is re-checked even when the
  // backend never delivers (lost completion / hung device).
  constexpr std::uint64_t kStallSliceNs = 10'000'000;  // 10 ms
  std::uint64_t last_progress_ns =
      (deadline_ns || abs_wait_deadline_ns_) ? obs::now_ns() : 0;
  while (backend_.in_flight() > 0) {
    unsigned n = 0;
    if (deadline_ns == 0 && abs_wait_deadline_ns_ == 0) {
      auto waited = backend_.wait(completions);
      if (!waited.is_ok()) {
        quiesce();
        return waited.status();
      }
      n = waited.value();
    } else {
      // The request-deadline override aborts even while completions keep
      // arriving — a spent budget means nobody is waiting for the answer.
      const std::uint64_t now = obs::now_ns();
      if (abs_wait_deadline_ns_ != 0 && now >= abs_wait_deadline_ns_) {
        ++stats_.deadline_aborts;
        deadline_aborts_counter_.add();
        const Status expired = Status::timed_out(
            "request deadline expired with " +
            std::to_string(backend_.in_flight()) +
            " read(s) in flight on " + backend_.name());
        quiesce();
        return expired;
      }
      std::uint64_t slice = kStallSliceNs;
      if (deadline_ns != 0) slice = std::min(slice, deadline_ns);
      if (abs_wait_deadline_ns_ != 0) {
        slice = std::min(slice, abs_wait_deadline_ns_ - now);
      }
      auto waited = backend_.wait_for(completions, slice);
      if (!waited.is_ok()) {
        quiesce();
        return waited.status();
      }
      n = waited.value();
      if (n == 0) {
        if (deadline_ns != 0 &&
            obs::now_ns() - last_progress_ns >= deadline_ns) {
          ++stats_.stalls;
          stalls_counter_.add();
          const Status stalled = Status::timed_out(
              "I/O stall: " + std::to_string(backend_.in_flight()) +
              " read(s) stuck > " + std::to_string(options_.wait_deadline_ms) +
              " ms on " + backend_.name());
          quiesce();
          return stalled;
        }
        continue;
      }
      last_progress_ns = obs::now_ns();
    }
    for (unsigned i = 0; i < n; ++i) {
      const Status handled = handle_completion(completions[i], group, values);
      if (!handled.is_ok()) {
        quiesce();
        return handled;
      }
    }
  }
  return Status::ok();
}

Status ReadPipeline::run(ItemSource& source, NodeId* values) {
  deferred_error_ = Status::ok();

  // submit_group failures quiesce before returning: the backend may have
  // accepted part of the batch, and those reads target group scratch.
  auto submit_or_quiesce = [this](Group& group) {
    Status submitted = submit_group(group);
    if (!submitted.is_ok()) quiesce();
    return submitted;
  };

  if (!options_.async) {
    // Synchronous pipeline (Fig. 3b top): prepare -> submit -> block.
    Group& group = groups_[0];
    while (fill_group(source, group, values) > 0) {
      RS_RETURN_IF_ERROR(submit_or_quiesce(group));
      RS_RETURN_IF_ERROR(drain_group(group, values));
      // Retries exhausted somewhere in that group: the error is latched
      // and every read is accounted for, so stop fetching more.
      if (!deferred_error_.is_ok()) break;
    }
    return deferred_error_;
  }

  // Asynchronous pipeline (Fig. 3b bottom): while group `cur` is in
  // flight, prepare the other group; its completions accumulate in the
  // CQ meanwhile and drain without blocking.
  int cur = 0;
  if (fill_group(source, groups_[cur], values) == 0) {
    return deferred_error_;
  }
  RS_RETURN_IF_ERROR(submit_or_quiesce(groups_[cur]));
  for (;;) {
    const int nxt = 1 - cur;
    const std::size_t produced = fill_group(source, groups_[nxt], values);
    RS_RETURN_IF_ERROR(drain_group(groups_[cur], values));
    if (produced == 0 || !deferred_error_.is_ok()) break;
    RS_RETURN_IF_ERROR(submit_or_quiesce(groups_[nxt]));
    cur = nxt;
  }
  return deferred_error_;
}

}  // namespace rs::core
