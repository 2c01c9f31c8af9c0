// SamplerConfig: every knob of the RingSampler engine, defaulted to the
// paper's configuration (§4.1): 3 layers, fanout {20,15,10}, mini-batch
// 1024, ring size 512, completion polling on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/backend.h"
#include "util/common.h"

namespace rs::core {

// Fig. 3a: how threads share the epoch's mini-batches.
enum class ParallelismMode {
  // RingSampler's design: batches are distributed across threads; no
  // inter-thread synchronization at all.
  kBatchParallel,
  // The MariusGNN-style comparison point: all threads cooperate on one
  // mini-batch, with a barrier between GraphSAGE layers.
  kIntraBatch,
};

struct SamplerConfig {
  // GraphSAGE fanouts, outermost layer first ({20,15,10} = 3-hop).
  std::vector<std::uint32_t> fanouts = {20, 15, 10};
  std::uint32_t batch_size = 1024;
  std::uint32_t num_threads = 8;

  // io_uring ring size / queue depth; also the I/O group size of the
  // async pipeline (paper default 512).
  std::uint32_t queue_depth = 512;

  io::BackendKind backend = io::BackendKind::kUringPoll;

  // io_uring backends: register the edge-file fd with each ring
  // (IORING_REGISTER_FILES) so reads skip per-op fd lookup.
  bool register_file = false;

  // io_uring backends: register a per-worker fixed-buffer arena
  // (IORING_REGISTER_BUFFERS) and read via IORING_OP_READ_FIXED, which
  // skips the kernel's per-op page pinning. kAuto (default) uses the
  // fixed path when the kernel supports it and degrades silently; kOn
  // warns on degradation; kOff never registers. The arena is sized to
  // the pipeline's two staging buffers and is charged to the memory
  // budget in place of those allocations.
  io::FixedBufferMode register_buffers = io::FixedBufferMode::kAuto;

  // Fig. 3b: overlap I/O preparation with completion collection. When
  // false, each I/O group is prepared, submitted, and fully drained
  // before the next is touched.
  bool async_pipeline = true;

  ParallelismMode parallelism = ParallelismMode::kBatchParallel;

  // O_DIRECT edge-file access: bypasses the page cache (used under
  // memory budgets so the cgroup-equivalent constraint is honest).
  bool direct_io = false;

  // Read granularity: every read covers whole aligned blocks holding
  // sampled entries, coalesced per I/O group. 512 is the device's
  // logical block size; must be a power of two.
  std::uint32_t block_bytes = 512;

  // Merge runs of adjacent blocks into single reads, up to this many
  // blocks per request (1 = one read per distinct block).
  std::uint32_t max_extent_blocks = 8;

  // When a memory budget is attached and leftover budget remains after
  // the index and workspaces, the engine spends up to this fraction of
  // the leftover on a per-thread neighbor block cache (§A.2: spare
  // memory caches neighbor data and reduces I/O).
  double cache_budget_fraction = 0.8;
  bool enable_block_cache = true;

  // BGL-style static/reactive split of the block-cache budget: this
  // fraction of the cache spend is given to one shared pin set holding
  // the hottest edge-file blocks (rank_blocks over the profile, or
  // degree), loaded at build time and never evicted; the remainder funds
  // the per-thread reactive caches. 0 = fully reactive (the old
  // behavior), 1 = fully pinned. Ignored without a block cache.
  double cache_pin_fraction = 0.0;

  // Hotness profile (core/hotness.h) recorded by an earlier
  // `record_hotness` run. When set, block pinning and NeighborCache
  // admission rank by measured visit counts instead of degree.
  std::string hotness_profile_path;

  // Record per-node frontier-visit counts during sampling (one atomic
  // u64 per node, charged to the budget). Read the result back with
  // RingSampler::hotness_snapshot()/save_hotness_profile().
  bool record_hotness = false;

  // Hot-neighbor cache (§4.4's "smart caching strategy" for serving):
  // pin the adjacency lists of the highest-degree nodes, up to this many
  // bytes, and sample them with zero I/O. 0 disables. The cache is
  // charged to the memory budget and shared by all threads; results are
  // bit-identical with the cache on or off (same RNG consumption).
  std::uint64_t hot_cache_bytes = 0;

  // Sample neighbors *with* replacement (DGL's replace=True): always
  // exactly `fanout` draws per target regardless of degree, duplicates
  // possible. Default matches the paper: without replacement, up to
  // min(fanout, degree).
  bool sample_with_replacement = false;

  // ---- Fault tolerance (see docs/fault_tolerance.md) ----
  // Total tries per read (1 initial + N-1 retries) for retryable errnos
  // and short reads before the batch errors out.
  std::uint32_t max_io_attempts = 6;
  // Capped exponential backoff between retries of one read:
  // min(initial << (retry-1), max) microseconds; initial = 0 disables.
  std::uint32_t retry_backoff_initial_us = 20;
  std::uint32_t retry_backoff_max_us = 2000;
  // Stall detector: error out (TIMED_OUT) instead of hanging when no
  // completion arrives for this long. 0 disables.
  std::uint32_t wait_deadline_ms = 30'000;

  std::uint64_t seed = 7;

  // When non-empty, start the Chrome trace-event recorder (obs::trace)
  // writing to this path on init, unless tracing is already active
  // (e.g. via the RS_TRACE environment variable, which takes priority).
  std::string trace_path;

  // Retain sampled subgraphs and hand them to the caller (examples,
  // tests, training pipelines). Benchmarks leave this off and rely on
  // the checksum to keep the work alive.
  bool collect_blocks = false;

  std::uint32_t num_layers() const {
    return static_cast<std::uint32_t>(fanouts.size());
  }

  // Worst-case sampled entries in layer l for one mini-batch (no dedup
  // credit): batch * prod(fanouts[0..l]).
  std::uint64_t max_layer_width(std::uint32_t layer) const {
    std::uint64_t width = batch_size;
    for (std::uint32_t i = 0; i <= layer && i < fanouts.size(); ++i) {
      width *= fanouts[i];
    }
    return width;
  }
  std::uint64_t max_width() const {
    return fanouts.empty() ? batch_size : max_layer_width(num_layers() - 1);
  }

  std::string describe() const;
};

}  // namespace rs::core
