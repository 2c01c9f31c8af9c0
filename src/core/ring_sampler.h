// RingSampler: the paper's contribution. An io_uring-based GraphSAGE
// neighborhood sampler over an SSD-resident edge file:
//
//   * index-based sampling — random *offsets* are drawn from each
//     target's offset-index range and only the blocks holding those
//     4-byte entries are read (coalesced per I/O group), so disk
//     traffic is proportional to the sample;
//   * batch-parallel threading — mini-batches are distributed across
//     worker threads, each owning a private ring, workspace, and RNG
//     stream, with zero inter-thread synchronization (Fig. 3a);
//   * an asynchronous prepare/submit/reap pipeline per thread that
//     overlaps offset planning with in-flight I/O (Fig. 3b);
//   * O(|V|) resident state (offset index + target index + per-thread
//     workspaces) regardless of |E|, plus an optional block cache funded
//     by leftover memory budget (Fig. 5 / §A.2).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/block_cache.h"
#include "core/config.h"
#include "core/hotness.h"
#include "core/neighbor_cache.h"
#include "core/offset_index.h"
#include "core/pipeline.h"
#include "core/sampler_iface.h"
#include "core/target_index.h"
#include "core/workspace.h"
#include "io/file.h"
#include "util/histogram.h"
#include "util/mem_budget.h"
#include "util/sync.h"

namespace rs::core {

class RingSampler final : public Sampler {
 public:
  // Opens a graph written by graph::write_graph at `graph_base`. All
  // long-lived memory (offset index, workspaces, caches, pipeline
  // scratch) is charged to `budget`; nullptr means unlimited. Worker
  // state is created eagerly so OOM surfaces here, not mid-epoch.
  static Result<std::unique_ptr<RingSampler>> open(
      const std::string& graph_base, const SamplerConfig& config,
      MemoryBudget* budget = nullptr);

  ~RingSampler() override;

  std::string name() const override { return "RingSampler"; }
  const SamplerConfig& config() const { return config_; }
  const OffsetIndex& index() const { return index_; }
  NodeId num_nodes() const { return index_.num_nodes(); }
  EdgeIdx num_edges() const { return index_.num_edges(); }

  Result<EpochResult> run_epoch(std::span<const NodeId> targets) override;
  Result<EpochResult> run_epoch_collect(std::span<const NodeId> targets,
                                        const BatchSink& sink) override;

  // Samples a single mini-batch and returns the full subgraph (examples,
  // unit tests, serving). Uses worker 0's state; not thread-safe.
  Result<MiniBatchSample> sample_one(std::span<const NodeId> targets);

  // Serving entry point (net::Server): samples one request on worker
  // `ctx_index`'s private state with caller-chosen fanouts and a
  // per-request RNG seed. Every (layer, target) pair draws from a
  // private stream derived from rng_seed (serving_determinism.h), which
  // makes the result a pure function of (graph, targets, fanouts,
  // rng_seed) — independent of arrival order or batching — so any
  // replica answers bit-identically, a client can verify a response
  // against a local sampler, and the sharded router (src/router) can
  // decompose the request into per-shard single-hop sub-requests whose
  // merged answer is byte-identical to the unsharded one.
  // Fanouts must be elementwise <= the configured fanouts (worker
  // workspaces are sized for those); targets must fit batch_size and
  // reference existing nodes. Distinct ctx_index values may be driven
  // from distinct threads concurrently; one index must not be shared.
  // `deadline_ns` (absolute, obs::now_ns clock; 0 = none) bounds the
  // request's storage waits via the worker pipeline's deadline override
  // — an expired budget surfaces as kTimedOut, and the override is
  // cleared again before returning on every path.
  Result<MiniBatchSample> sample_for_serving(
      std::uint32_t ctx_index, std::span<const NodeId> targets,
      std::span<const std::uint32_t> fanouts, std::uint64_t rng_seed,
      std::uint64_t deadline_ns = 0);

  // On-demand serving experiment (Fig. 6): every target is an individual
  // sampling request; each request's completion time since the start of
  // the run is recorded.
  struct OnDemandResult {
    LatencyRecorder latencies;
    double total_seconds = 0.0;
    std::uint64_t checksum = 0;
    std::uint64_t sampled_neighbors = 0;
  };
  Result<OnDemandResult> run_on_demand(std::span<const NodeId> targets);

  // Open-loop serving: requests *arrive* at `arrival_rate_per_sec`
  // (Poisson process, deterministic in the config seed) instead of being
  // issued as fast as workers free up. Recorded latency is per-request
  // sojourn time (completion - arrival), i.e. queueing + service — the
  // quantity a latency SLO is written against. The closed-loop Fig. 6
  // run measures throughput; this measures responsiveness under load.
  struct OpenLoopResult {
    LatencyRecorder latencies;  // sojourn times
    double total_seconds = 0.0;
    double offered_rate = 0.0;
    double achieved_rate = 0.0;
    std::uint64_t checksum = 0;
  };
  Result<OpenLoopResult> run_open_loop(std::span<const NodeId> targets,
                                       double arrival_rate_per_sec);

  // Drops the edge file's OS page-cache pages (cold-cache benchmarking).
  Status drop_page_cache() const { return edge_file_.drop_cache(); }

  // Hot-neighbor cache introspection (enabled via
  // SamplerConfig::hot_cache_bytes).
  const NeighborCache& hot_cache() const { return hot_cache_; }

  // Shared static pin set introspection (enabled via
  // SamplerConfig::cache_pin_fraction under a memory budget).
  const PinnedBlockSet& pinned_blocks() const { return pinned_; }

  // Hotness recording (SamplerConfig::record_hotness): per-node
  // frontier-visit counts accumulated across every batch sampled so far.
  bool recording_hotness() const { return hotness_counts_ != nullptr; }
  HotnessProfile hotness_snapshot() const;
  Status save_hotness_profile(const std::string& path) const;

 private:
  struct ThreadContext {
    std::unique_ptr<io::IoBackend> backend;
    BlockCache cache;
    std::unique_ptr<ReadPipeline> pipeline;
    Workspace workspace;
    Xoshiro256 rng{0};
  };

  RingSampler() : internal_budget_(0) {}

  Status init(const std::string& graph_base, const SamplerConfig& config,
              MemoryBudget* budget);
  Status build_contexts();

  // Samples one mini-batch with `ctx`, accumulating into `acc`; fills
  // `out` with the subgraph when non-null.
  Status sample_batch(ThreadContext& ctx, std::span<const NodeId> batch,
                      MiniBatchSample* out, EpochResult& acc);
  // Generalization of sample_batch with explicit per-layer fanouts
  // (sample_for_serving); fanouts are pre-validated by the caller.
  // When `serving_seed` is non-null, every (layer, target) pair draws
  // from a private stream derived from it (serving_determinism.h)
  // instead of ctx.rng — the hop-decomposable mode the sharded router
  // relies on. Null keeps the sequential epoch stream.
  Status sample_batch_with(ThreadContext& ctx,
                           std::span<const NodeId> batch,
                           std::span<const std::uint32_t> fanouts,
                           MiniBatchSample* out, EpochResult& acc,
                           const std::uint64_t* serving_seed = nullptr);

  Result<EpochResult> epoch_batch_parallel(std::span<const NodeId> targets,
                                           const BatchSink* sink);
  Result<EpochResult> epoch_intra_batch(std::span<const NodeId> targets);

  SamplerConfig config_;
  std::string graph_base_;
  io::File edge_file_;
  MemoryBudget internal_budget_;
  MemoryBudget* budget_ = nullptr;
  OffsetIndex index_;
  NeighborCache hot_cache_;
  // Hotness ranking inputs/outputs: a profile loaded from disk steers
  // pinning and NeighborCache admission; the recorder (one relaxed
  // atomic per node, budget-charged) produces one.
  std::optional<HotnessProfile> profile_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> hotness_counts_;
  std::uint64_t hotness_bytes_charged_ = 0;
  // One immutable pin set shared by every worker's BlockCache.
  PinnedBlockSet pinned_;
  // Fixed-buffer arenas charged to the budget (released in the dtor —
  // the backends own the arenas but not the budget accounting).
  std::uint64_t arena_bytes_charged_ = 0;
  std::vector<std::unique_ptr<ThreadContext>> contexts_;
  // Serializes BatchSink invocations across worker threads (the sink is
  // caller-supplied and not required to be thread-safe).
  Mutex sink_mutex_;
};

}  // namespace rs::core
