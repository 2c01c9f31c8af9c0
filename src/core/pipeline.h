// ReadPipeline: executes a layer's planned sample items against an
// IoBackend, writing each fetched 4-byte edge entry into its value slot.
//
// Two pipeline shapes (paper Fig. 3b):
//  * async (default): I/O group k+1 is *prepared* — offsets sampled,
//    cache probed, requests built — while group k's reads are in flight;
//    by the time preparation finishes, k's completions are already
//    sitting in the CQ and k+1 submits immediately.
//  * sync: prepare, submit, and fully drain each group before touching
//    the next; the CPU idles during every I/O wait.
//
// One read path: a group's items are coalesced per aligned block, and
// runs of adjacent blocks merge into extents — one read per extent into
// a staging buffer, from which each sampled entry is scattered into its
// value slot. Every read covers only blocks holding a sampled entry, so
// I/O stays sample-proportional (bytes <= block_bytes x items). The same
// reads serve buffered files, O_DIRECT, and the BlockCache (probed and
// filled at block granularity).
#pragma once

#include <memory>
#include <vector>

#include "core/block_cache.h"
#include "core/sample_plan.h"
#include "io/backend.h"
#include "obs/metrics.h"
#include "util/align.h"
#include "util/mem_budget.h"

namespace rs::core {

struct PipelineOptions {
  bool async = true;
  std::uint32_t block_bytes = 512;  // read granularity; a power of two
  std::uint32_t group_size = 512;   // == queue depth
  // Merge runs of *adjacent* blocks into single larger reads (an
  // extent), up to this many blocks per read. Contiguous sampled offsets
  // — common when fanout ~ degree, since a node's neighbors are adjacent
  // on disk — then cost one I/O instead of several. 1 disables merging.
  std::uint32_t max_extent_blocks = 8;

  // ---- Fault tolerance ----
  // Total tries per request (1 initial + max_io_attempts-1 retries) for
  // retryable errnos and short reads; transient errnos (EINTR/EAGAIN)
  // ride io::kTransientRetryCap instead, and permanent errnos
  // (EBADF/EINVAL/...) never retry. Short reads resume from the block
  // boundary containing the delivered prefix rather than from scratch.
  unsigned max_io_attempts = 6;
  // Capped exponential backoff between retries of the same request:
  // min(initial << (retry-1), max). initial == 0 disables backoff.
  std::uint32_t retry_backoff_initial_us = 20;
  std::uint32_t retry_backoff_max_us = 2000;
  // Stall detector: if no completion arrives for this long while reads
  // are in flight, drain_group gives up with a TIMED_OUT error instead
  // of hanging (0 disables; waits then block indefinitely).
  std::uint32_t wait_deadline_ms = 30'000;
};

struct PipelineStats {
  std::uint64_t items = 0;       // sampled entries fetched
  std::uint64_t read_ops = 0;    // requests issued to storage
  std::uint64_t bytes_read = 0;  // bytes requested from storage
  std::uint64_t cache_hits = 0;
  std::uint64_t groups = 0;
  std::uint64_t retries = 0;  // re-submissions after failed/short reads
  std::uint64_t stalls = 0;   // wait deadlines exceeded
  // Storage waits aborted because a caller-set absolute deadline (the
  // serving tier's per-request budget) expired — see
  // set_wait_deadline_ns. Distinct from stalls: I/O may still be making
  // progress when the request's budget runs out.
  std::uint64_t deadline_aborts = 0;

  // Phase attribution (Fig. 3b's lifecycle): time spent preparing
  // groups (offset sampling, cache probes, request building), in the
  // submit call, and draining completions. In the async pipeline the
  // drain share shrinks because completions accumulate during prepare.
  double prepare_seconds = 0;
  double submit_seconds = 0;
  double drain_seconds = 0;
};

class ReadPipeline {
 public:
  // `cache` may be null. Group scratch (double-buffered request arrays
  // and block buffers) is charged to `budget`.
  static Result<std::unique_ptr<ReadPipeline>> create(
      io::IoBackend& backend, BlockCache* cache,
      const PipelineOptions& options, MemoryBudget& budget);

  ~ReadPipeline();

  // Drains `source`, writing each item's edge entry to values[slot].
  // All I/O issued by this call completes before it returns.
  Status run(ItemSource& source, NodeId* values);

  const PipelineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = PipelineStats{}; }
  const PipelineOptions& options() const { return options_; }

  // Per-request deadline override (the serving tier's QoS path): bound
  // every storage wait in subsequent run() calls by this *absolute*
  // obs::now_ns() instant; 0 clears the override. Unlike the
  // wait_deadline_ms stall detector — which only fires when completions
  // stop arriving — this aborts with TIMED_OUT even while I/O is making
  // progress, so a request whose deadline budget is spent stops
  // occupying the ring. Callers clear the override when the request
  // finishes (RingSampler::sample_for_serving does this with a scope
  // guard).
  void set_wait_deadline_ns(std::uint64_t abs_deadline_ns) {
    abs_wait_deadline_ns_ = abs_deadline_ns;
  }

 private:
  // Per-request retry bookkeeping, reset on every submit_group.
  struct RetryState {
    std::uint32_t done = 0;       // bytes delivered so far (prefix)
    std::uint16_t attempts = 0;   // tries so far (initial + retries)
    std::uint16_t transient = 0;  // EINTR/EAGAIN retries, capped separately
  };

  struct Group {
    std::vector<SampleItem> items;  // cache misses, in block order
    std::vector<io::ReadRequest> requests;
    // requests[r] covers items[ref_begin[r], ref_begin[r+1]).
    std::vector<std::uint32_t> ref_begin;
    std::vector<RetryState> retry;
    // Block staging memory. block_view is what fill_group targets; it
    // aliases either block_buf (heap-owned) or a slice of the backend's
    // registered fixed-buffer arena, in which case block_buf stays null
    // and reads take the READ_FIXED path.
    AlignedPtr block_buf;
    unsigned char* block_view = nullptr;
    std::size_t num_requests = 0;
    std::size_t num_items = 0;
  };

  ReadPipeline(io::IoBackend& backend, BlockCache* cache,
               const PipelineOptions& options, MemoryBudget& budget,
               std::uint64_t scratch_bytes);

  // Pulls up to group_size items, probes the cache, builds one request
  // per extent. Items arriving in block order (the cursor's usual
  // output) coalesce in one linear pass; only out-of-order groups are
  // sorted first. Returns the number of items consumed from the source.
  std::size_t fill_group(ItemSource& source, Group& group, NodeId* values);
  Status submit_group(Group& group);
  // Blocks until every in-flight read of `group` completed (including
  // retried re-submissions), scattering payloads into value slots. Returns TIMED_OUT if the stall detector fires.
  Status drain_group(Group& group, NodeId* values);
  // Scatters a successful completion, or classifies a failed/short one
  // and re-submits its unread tail. Non-OK only when a retry submission
  // itself fails; exhausted retries latch deferred_error_ instead so the
  // rest of the group still drains.
  Status handle_completion(const io::Completion& completion, Group& group,
                           NodeId* values);
  // True when every sampled entry referenced by request `r`
  // lies entirely within the first `delivered` bytes of the extent —
  // the acceptance test for short reads at EOF, where the block-shaped
  // extent can never be filled completely.
  bool extent_items_delivered(const Group& group, std::size_t r,
                              std::uint32_t delivered) const;
  // Best-effort bounded discard-drain of everything still in flight,
  // called before every error return so the kernel never holds
  // completions aimed at group scratch we are about to recycle.
  void quiesce();

  io::IoBackend& backend_;
  BlockCache* cache_;
  PipelineOptions options_;
  MemoryBudget& budget_;
  std::uint64_t scratch_bytes_;
  Group groups_[2];
  PipelineStats stats_;
  Status deferred_error_;
  std::uint64_t abs_wait_deadline_ns_ = 0;

  // Registry mirrors of PipelineStats (merged across worker threads by
  // the obs registry; bumped once per group, not per item).
  obs::Counter groups_counter_;
  obs::Counter items_counter_;
  obs::Counter read_ops_counter_;
  obs::Counter bytes_counter_;
  obs::Counter cache_hits_counter_;
  obs::Counter retries_counter_;
  obs::Counter stalls_counter_;
  obs::Counter deadline_aborts_counter_;
};

}  // namespace rs::core
