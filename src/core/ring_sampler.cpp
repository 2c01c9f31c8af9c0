#include "core/ring_sampler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "core/serving_determinism.h"
#include "graph/binary_format.h"
#include "io/fixed_buffer_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/align.h"
#include "util/log.h"
#include "util/timer.h"

namespace rs::core {

Result<std::unique_ptr<RingSampler>> RingSampler::open(
    const std::string& graph_base, const SamplerConfig& config,
    MemoryBudget* budget) {
  auto sampler = std::unique_ptr<RingSampler>(new RingSampler());
  RS_RETURN_IF_ERROR(sampler->init(graph_base, config, budget));
  return sampler;
}

RingSampler::~RingSampler() {
  if (arena_bytes_charged_ > 0) budget_->release(arena_bytes_charged_);
  if (hotness_bytes_charged_ > 0) budget_->release(hotness_bytes_charged_);
}

Status RingSampler::init(const std::string& graph_base,
                         const SamplerConfig& config, MemoryBudget* budget) {
  if (config.fanouts.empty()) {
    return Status::invalid("SamplerConfig.fanouts must be non-empty");
  }
  if (config.num_threads == 0 || config.batch_size == 0 ||
      config.queue_depth == 0) {
    return Status::invalid("threads, batch_size, queue_depth must be > 0");
  }
  config_ = config;
  graph_base_ = graph_base;
  budget_ = budget != nullptr ? budget : &internal_budget_;

  if (!config.trace_path.empty() && !obs::trace_enabled()) {
    RS_RETURN_IF_ERROR(obs::trace_start(config.trace_path));
  }

  RS_ASSIGN_OR_RETURN(
      edge_file_,
      io::File::open(graph::edges_path(graph_base),
                     config.direct_io ? io::OpenMode::kReadDirect
                                      : io::OpenMode::kRead));
  RS_ASSIGN_OR_RETURN(index_, OffsetIndex::load(graph_base, *budget_));
  if (!config.hotness_profile_path.empty()) {
    RS_ASSIGN_OR_RETURN(HotnessProfile profile,
                        HotnessProfile::load(config.hotness_profile_path));
    if (profile.num_nodes() != index_.num_nodes()) {
      return Status::invalid(config.hotness_profile_path +
                             ": profile covers " +
                             std::to_string(profile.num_nodes()) +
                             " nodes, graph has " +
                             std::to_string(index_.num_nodes()));
    }
    profile_ = std::move(profile);
  }
  if (config.record_hotness) {
    const std::size_t n = index_.num_nodes();
    const std::uint64_t bytes = n * sizeof(std::atomic<std::uint64_t>);
    RS_RETURN_IF_ERROR(budget_->charge(bytes, "hotness recorder"));
    hotness_bytes_charged_ = bytes;
    // Value-initialized, so every count starts at zero.
    hotness_counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  }
  if (config.hot_cache_bytes > 0) {
    RS_ASSIGN_OR_RETURN(
        hot_cache_,
        NeighborCache::build(graph_base, index_, config.hot_cache_bytes,
                             *budget_,
                             profile_ ? &*profile_ : nullptr));
  }
  return build_contexts();
}

Status RingSampler::build_contexts() {
  // Pass 1: backends and workspaces for every worker. Done before cache
  // sizing so the cache sees the true leftover budget.
  contexts_.reserve(config_.num_threads);
  for (std::uint32_t t = 0; t < config_.num_threads; ++t) {
    auto ctx = std::make_unique<ThreadContext>();
    io::BackendConfig backend_config;
    backend_config.kind = config_.backend;
    backend_config.queue_depth = config_.queue_depth;
    backend_config.register_file = config_.register_file;
    backend_config.fixed_buffers = config_.register_buffers;
    if (config_.register_buffers != io::FixedBufferMode::kOff) {
      // Arena sized for what this worker carves from it: the pipeline's
      // two staging buffers (every read's destination), each rounded to
      // the O_DIRECT alignment.
      const std::uint64_t arena =
          2 * align_up(static_cast<std::uint64_t>(config_.queue_depth) *
                           config_.block_bytes,
                       kDirectIoAlign);
      // Registered pages are pinned (RLIMIT_MEMLOCK / memcg); very wide
      // fanout configs would pin too much, so past the cap the worker
      // just runs on plain reads.
      constexpr std::uint64_t kMaxArenaBytes = 64ull << 20;
      if (arena <= kMaxArenaBytes) {
        backend_config.fixed_arena_bytes = arena;
      }
    }
    RS_ASSIGN_OR_RETURN(
        ctx->backend,
        io::make_backend_auto(backend_config, edge_file_.fd()));
    if (io::FixedBufferPool* pool = ctx->backend->fixed_pool()) {
      // The pipeline buffers carved from the arena are *not* charged
      // individually — the arena is charged once here.
      RS_RETURN_IF_ERROR(
          budget_->charge(pool->arena_bytes(), "fixed-buffer arena"));
      arena_bytes_charged_ += pool->arena_bytes();
    }
    RS_ASSIGN_OR_RETURN(
        ctx->workspace,
        Workspace::create(config_, *budget_));
    // Distinct, decorrelated stream per worker (SplitMix64-expanded).
    std::uint64_t sm = config_.seed + 0x9e3779b97f4a7c15ULL * (t + 1);
    ctx->rng = Xoshiro256(splitmix64(sm));
    contexts_.push_back(std::move(ctx));
  }

  // Pass 2: spend leftover budget on block caches (§A.2). The spend is
  // split BGL-style: `cache_pin_fraction` of it builds one shared pin
  // set holding the hottest blocks (rank_blocks over the profile or
  // degree); the rest funds the per-thread reactive caches.
  std::uint64_t cache_bytes_per_thread = 0;
  std::uint64_t pin_bytes = 0;
  if (budget_->is_limited() && config_.enable_block_cache) {
    const std::uint64_t used = budget_->used();
    const std::uint64_t leftover =
        budget_->limit() > used ? budget_->limit() - used : 0;
    const std::uint64_t cache_total = static_cast<std::uint64_t>(
        static_cast<double>(leftover) * config_.cache_budget_fraction);
    const double pin_fraction =
        std::clamp(config_.cache_pin_fraction, 0.0, 1.0);
    pin_bytes = static_cast<std::uint64_t>(
        static_cast<double>(cache_total) * pin_fraction);
    cache_bytes_per_thread = (cache_total - pin_bytes) / config_.num_threads;
  }
  if (pin_bytes > 0) {
    // Like the reactive cache, a pinned block costs its data plus an id.
    const std::uint64_t per_block =
        config_.block_bytes + sizeof(std::uint64_t);
    const auto max_blocks = static_cast<std::size_t>(pin_bytes / per_block);
    const std::vector<std::uint64_t> ranked =
        rank_blocks(index_, profile_ ? &*profile_ : nullptr,
                    config_.block_bytes, max_blocks);
    if (!ranked.empty()) {
      RS_ASSIGN_OR_RETURN(
          pinned_,
          PinnedBlockSet::build(graph::edges_path(graph_base_), ranked,
                                config_.block_bytes, *budget_));
    }
  }
  const PinnedBlockSet* pinned = pinned_.enabled() ? &pinned_ : nullptr;
  for (auto& ctx : contexts_) {
    if (cache_bytes_per_thread > 0 || pinned != nullptr) {
      RS_ASSIGN_OR_RETURN(ctx->cache,
                          BlockCache::create(*budget_,
                                             cache_bytes_per_thread,
                                             config_.block_bytes, pinned));
    }
  }

  // Pass 3: pipelines.
  for (auto& ctx : contexts_) {
    PipelineOptions options;
    options.async = config_.async_pipeline;
    options.block_bytes = config_.block_bytes;
    options.group_size = config_.queue_depth;
    options.max_extent_blocks = config_.max_extent_blocks;
    options.max_io_attempts = config_.max_io_attempts;
    options.retry_backoff_initial_us = config_.retry_backoff_initial_us;
    options.retry_backoff_max_us = config_.retry_backoff_max_us;
    options.wait_deadline_ms = config_.wait_deadline_ms;
    RS_ASSIGN_OR_RETURN(
        ctx->pipeline,
        ReadPipeline::create(*ctx->backend,
                             ctx->cache.enabled() ? &ctx->cache : nullptr,
                             options, *budget_));
  }
  RS_DEBUG("RingSampler ready: %u threads, budget used %s",
           config_.num_threads, std::to_string(budget_->used()).c_str());
  return Status::ok();
}

Status RingSampler::sample_batch(ThreadContext& ctx,
                                 std::span<const NodeId> batch,
                                 MiniBatchSample* out, EpochResult& acc) {
  return sample_batch_with(ctx, batch, config_.fanouts, out, acc);
}

Status RingSampler::sample_batch_with(ThreadContext& ctx,
                                      std::span<const NodeId> batch,
                                      std::span<const std::uint32_t> fanouts,
                                      MiniBatchSample* out,
                                      EpochResult& acc,
                                      const std::uint64_t* serving_seed) {
  Workspace& ws = ctx.workspace;
  RS_CHECK_MSG(batch.size() <= config_.batch_size,
               "batch larger than configured batch_size");
  RS_OBS_SPAN("sampler", "batch", "targets",
              static_cast<std::uint64_t>(batch.size()));
  std::copy(batch.begin(), batch.end(), ws.targets());
  std::size_t num_targets = batch.size();

  const std::uint32_t num_layers =
      static_cast<std::uint32_t>(fanouts.size());
  for (std::uint32_t layer = 0; layer < num_layers; ++layer) {
    if (num_targets == 0) break;
    RS_OBS_SPAN("sampler", "layer", "layer", layer);
    if (hotness_counts_ != nullptr) {
      // Every frontier target is one adjacency-list access — the event
      // the hotness profile counts.
      for (std::size_t i = 0; i < num_targets; ++i) {
        hotness_counts_[ws.targets()[i]].fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    LayerSampleCursor cursor(
        index_, std::span<const NodeId>(ws.targets(), num_targets),
        fanouts[layer], ctx.rng, ws.begins(), &hot_cache_,
        ws.values(), config_.sample_with_replacement);
    if (serving_seed != nullptr) {
      cursor.use_per_target_seeds(serving_layer_seed(*serving_seed, layer));
    }
    RS_RETURN_IF_ERROR(ctx.pipeline->run(cursor, ws.values()));
    const std::uint32_t width = cursor.slots_planned();

    // Fold the layer into the order-independent digest (also keeps the
    // sampled data "used" in benchmarks).
    std::uint64_t digest = 0;
    const std::uint32_t* begins = ws.begins();
    for (std::size_t i = 0; i < num_targets; ++i) {
      const NodeId target = ws.targets()[i];
      for (std::uint32_t s = begins[i]; s < begins[i + 1]; ++s) {
        digest = edge_checksum_mix(digest, target, ws.values()[s]);
      }
    }
    acc.checksum += digest;
    acc.sampled_neighbors += width;
    static obs::Counter neighbors_counter =
        obs::Registry::global().counter("sampler.sampled_neighbors");
    neighbors_counter.add(width);

    if (out != nullptr) {
      LayerSample layer_sample;
      layer_sample.targets.assign(ws.targets(), ws.targets() + num_targets);
      layer_sample.sample_begin.assign(begins, begins + num_targets + 1);
      layer_sample.neighbors.assign(ws.values(), ws.values() + width);
      out->layers.push_back(std::move(layer_sample));
    }

    if (layer + 1 < num_layers) {
      // Fig. 1b: sort and deduplicate to form the next layer's targets.
      num_targets = ws.dedup_into_targets(width);
    }
  }
  ++acc.batches;
  static obs::Counter batches_counter =
      obs::Registry::global().counter("sampler.batches");
  batches_counter.add();
  return Status::ok();
}

Result<EpochResult> RingSampler::epoch_batch_parallel(
    std::span<const NodeId> targets, const BatchSink* sink) {
  RS_ASSIGN_OR_RETURN(
      TargetIndex target_index,
      TargetIndex::create(targets, config_.batch_size, *budget_));

  for (auto& ctx : contexts_) ctx->pipeline->reset_stats();
  const std::uint64_t hot_hits_before = hot_cache_.hits();

  const std::size_t num_batches = target_index.num_batches();
  const std::size_t num_workers =
      std::min<std::size_t>(config_.num_threads, std::max<std::size_t>(
                                                     num_batches, 1));
  std::vector<EpochResult> partials(num_workers);
  std::vector<Status> statuses(num_workers);
  std::vector<MiniBatchSample> collected;

  WallTimer timer;
  auto worker = [&](std::size_t t) {
    ThreadContext& ctx = *contexts_[t];
    // Round-robin batch ownership: batch b belongs to thread b % n.
    for (std::size_t b = t; b < num_batches; b += num_workers) {
      MiniBatchSample sample;
      MiniBatchSample* out =
          (sink != nullptr || config_.collect_blocks) ? &sample : nullptr;
      if (out != nullptr) out->batch_index = static_cast<std::uint32_t>(b);
      const Status status =
          sample_batch(ctx, target_index.batch(b), out, partials[t]);
      if (!status.is_ok()) {
        statuses[t] = status;
        return;
      }
      if (sink != nullptr) {
        MutexLock lock(sink_mutex_);
        (*sink)(std::move(sample));
      }
    }
  };

  if (num_workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (std::size_t t = 0; t < num_workers; ++t) {
      threads.emplace_back(worker, t);
    }
    for (auto& thread : threads) thread.join();
  }
  const double elapsed = timer.elapsed_seconds();

  EpochResult result;
  for (std::size_t t = 0; t < num_workers; ++t) {
    RS_RETURN_IF_ERROR(statuses[t]);
    result.merge(partials[t]);
    const PipelineStats& stats = contexts_[t]->pipeline->stats();
    result.read_ops += stats.read_ops;
    result.bytes_read += stats.bytes_read;
    result.cache_hits += stats.cache_hits;
    result.prepare_seconds += stats.prepare_seconds;
    result.drain_seconds += stats.drain_seconds;
  }
  result.cache_hits += hot_cache_.hits() - hot_hits_before;
  result.seconds = elapsed;
  result.peak_memory_bytes = budget_->peak();
  return result;
}

Result<EpochResult> RingSampler::epoch_intra_batch(
    std::span<const NodeId> targets) {
  // Fig. 3a upper scheme (the comparison point): all threads cooperate
  // on one mini-batch; a barrier separates GraphSAGE layers because
  // layer l+1's targets need every thread's layer-l samples.
  RS_ASSIGN_OR_RETURN(
      TargetIndex target_index,
      TargetIndex::create(targets, config_.batch_size, *budget_));
  for (auto& ctx : contexts_) ctx->pipeline->reset_stats();

  RS_ASSIGN_OR_RETURN(
      TrackedBuffer<NodeId> combined,
      TrackedBuffer<NodeId>::create(*budget_, config_.max_width(),
                                    "intra-batch merge buffer"));

  const std::size_t num_workers = config_.num_threads;
  EpochResult result;
  std::vector<Status> statuses(num_workers);

  WallTimer timer;
  for (std::size_t b = 0; b < target_index.num_batches(); ++b) {
    const auto batch = target_index.batch(b);
    // Current layer targets live in worker 0's target buffer.
    Workspace& ws0 = contexts_[0]->workspace;
    std::copy(batch.begin(), batch.end(), ws0.targets());
    std::size_t num_targets = batch.size();

    for (std::uint32_t layer = 0; layer < config_.num_layers(); ++layer) {
      if (num_targets == 0) break;
      const std::span<const NodeId> layer_targets(ws0.targets(),
                                                  num_targets);
      std::vector<std::uint32_t> widths(num_workers, 0);
      std::fill(statuses.begin(), statuses.end(), Status::ok());

      // Static split of targets across threads, then a full barrier
      // (thread join) before dedup — the synchronization RingSampler's
      // batch-parallel design eliminates.
      const std::size_t chunk =
          (num_targets + num_workers - 1) / num_workers;
      auto layer_worker = [&](std::size_t t) {
        const std::size_t begin = t * chunk;
        const std::size_t end = std::min(begin + chunk, num_targets);
        if (begin >= end) return;
        ThreadContext& ctx = *contexts_[t];
        LayerSampleCursor cursor(
            index_, layer_targets.subspan(begin, end - begin),
            config_.fanouts[layer], ctx.rng, ctx.workspace.begins(),
            &hot_cache_, ctx.workspace.values(),
            config_.sample_with_replacement);
        const Status status =
            ctx.pipeline->run(cursor, ctx.workspace.values());
        if (!status.is_ok()) {
          statuses[t] = status;
          return;
        }
        widths[t] = cursor.slots_planned();
        std::uint64_t digest = 0;
        const std::uint32_t* begins = ctx.workspace.begins();
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId target = layer_targets[i];
          const std::size_t local = i - begin;
          for (std::uint32_t s = begins[local]; s < begins[local + 1];
               ++s) {
            digest = edge_checksum_mix(digest, target,
                                       ctx.workspace.values()[s]);
          }
        }
        __atomic_fetch_add(&result.checksum, digest, __ATOMIC_RELAXED);
      };

      {
        std::vector<std::thread> threads;
        threads.reserve(num_workers);
        for (std::size_t t = 0; t < num_workers; ++t) {
          threads.emplace_back(layer_worker, t);
        }
        for (auto& thread : threads) thread.join();  // the layer barrier
      }
      for (const Status& status : statuses) RS_RETURN_IF_ERROR(status);

      // Merge per-thread samples, then dedup for the next layer.
      std::size_t total = 0;
      for (std::size_t t = 0; t < num_workers; ++t) {
        std::copy(contexts_[t]->workspace.values(),
                  contexts_[t]->workspace.values() + widths[t],
                  combined.data() + total);
        total += widths[t];
      }
      result.sampled_neighbors += total;
      if (layer + 1 < config_.num_layers()) {
        NodeId* begin = combined.data();
        NodeId* end = begin + total;
        std::sort(begin, end);
        end = std::unique(begin, end);
        num_targets = static_cast<std::size_t>(end - begin);
        std::copy(begin, end, ws0.targets());
      }
    }
    ++result.batches;
  }
  result.seconds = timer.elapsed_seconds();
  for (auto& ctx : contexts_) {
    const PipelineStats& stats = ctx->pipeline->stats();
    result.read_ops += stats.read_ops;
    result.bytes_read += stats.bytes_read;
    result.cache_hits += stats.cache_hits;
    result.prepare_seconds += stats.prepare_seconds;
    result.drain_seconds += stats.drain_seconds;
  }
  result.peak_memory_bytes = budget_->peak();
  return result;
}

HotnessProfile RingSampler::hotness_snapshot() const {
  HotnessProfile profile;
  const std::size_t n = index_.num_nodes();
  profile.counts.resize(n);
  if (hotness_counts_ != nullptr) {
    for (std::size_t v = 0; v < n; ++v) {
      profile.counts[v] =
          hotness_counts_[v].load(std::memory_order_relaxed);
    }
  }
  return profile;
}

Status RingSampler::save_hotness_profile(const std::string& path) const {
  if (hotness_counts_ == nullptr) {
    return Status::invalid(
        "save_hotness_profile: SamplerConfig.record_hotness is off");
  }
  return hotness_snapshot().save(path);
}

Result<EpochResult> RingSampler::run_epoch(std::span<const NodeId> targets) {
  if (config_.parallelism == ParallelismMode::kIntraBatch) {
    return epoch_intra_batch(targets);
  }
  return epoch_batch_parallel(targets, nullptr);
}

Result<EpochResult> RingSampler::run_epoch_collect(
    std::span<const NodeId> targets, const BatchSink& sink) {
  return epoch_batch_parallel(targets, &sink);
}

Result<MiniBatchSample> RingSampler::sample_one(
    std::span<const NodeId> targets) {
  if (targets.size() > config_.batch_size) {
    return Status::invalid("sample_one: more targets than batch_size");
  }
  MiniBatchSample sample;
  EpochResult scratch;
  RS_RETURN_IF_ERROR(
      sample_batch(*contexts_[0], targets, &sample, scratch));
  return sample;
}

Result<MiniBatchSample> RingSampler::sample_for_serving(
    std::uint32_t ctx_index, std::span<const NodeId> targets,
    std::span<const std::uint32_t> fanouts, std::uint64_t rng_seed,
    std::uint64_t deadline_ns) {
  if (ctx_index >= contexts_.size()) {
    return Status::invalid("sample_for_serving: ctx_index out of range");
  }
  if (targets.empty() || targets.size() > config_.batch_size) {
    return Status::invalid(
        "sample_for_serving: target count must be 1..batch_size");
  }
  if (fanouts.empty() || fanouts.size() > config_.fanouts.size()) {
    return Status::invalid(
        "sample_for_serving: fanout count must be 1..configured layers");
  }
  // Worker workspaces are sized for the configured fanout schedule, so a
  // serving request may only shrink it, never widen it.
  for (std::size_t i = 0; i < fanouts.size(); ++i) {
    if (fanouts[i] == 0 || fanouts[i] > config_.fanouts[i]) {
      return Status::invalid(
          "sample_for_serving: fanout exceeds configured fanout");
    }
  }
  for (const NodeId node : targets) {
    if (node >= index_.num_nodes()) {
      return Status::invalid("sample_for_serving: node id out of range");
    }
  }
  ThreadContext& ctx = *contexts_[ctx_index];
  // Bound this request's storage waits by its remaining deadline budget;
  // the guard clears the override on every return path so epoch traffic
  // on the same context never inherits a stale deadline.
  struct DeadlineGuard {
    ReadPipeline* pipeline;
    ~DeadlineGuard() { pipeline->set_wait_deadline_ns(0); }
  };
  ctx.pipeline->set_wait_deadline_ns(deadline_ns);
  DeadlineGuard guard{ctx.pipeline.get()};
  MiniBatchSample sample;
  EpochResult scratch;
  // Serving draws per-(layer, target) streams derived from rng_seed
  // (serving_determinism.h), never ctx.rng: the response is a pure
  // function of (graph, targets, fanouts, rng_seed) AND decomposes hop
  // by hop, so the sharded router can scatter/gather it bit-identically.
  // The worker's epoch stream is left untouched.
  RS_RETURN_IF_ERROR(
      sample_batch_with(ctx, targets, fanouts, &sample, scratch, &rng_seed));
  return sample;
}

Result<RingSampler::OnDemandResult> RingSampler::run_on_demand(
    std::span<const NodeId> targets) {
  const std::size_t num_workers = config_.num_threads;
  std::vector<LatencyRecorder> recorders(num_workers);
  std::vector<EpochResult> partials(num_workers);
  std::vector<Status> statuses(num_workers);

  WallTimer epoch_timer;
  auto worker = [&](std::size_t t) {
    ThreadContext& ctx = *contexts_[t];
    recorders[t].reserve(targets.size() / num_workers + 1);
    for (std::size_t i = t; i < targets.size(); i += num_workers) {
      const NodeId target = targets[i];
      const Status status = sample_batch(
          ctx, std::span<const NodeId>(&target, 1), nullptr, partials[t]);
      if (!status.is_ok()) {
        statuses[t] = status;
        return;
      }
      // Fig. 6 records when each request's sampling completed, measured
      // from the start of the run.
      recorders[t].record_ns(epoch_timer.elapsed_nanos());
    }
  };

  if (num_workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (std::size_t t = 0; t < num_workers; ++t) {
      threads.emplace_back(worker, t);
    }
    for (auto& thread : threads) thread.join();
  }

  OnDemandResult result;
  result.total_seconds = epoch_timer.elapsed_seconds();
  for (std::size_t t = 0; t < num_workers; ++t) {
    RS_RETURN_IF_ERROR(statuses[t]);
    result.latencies.merge(recorders[t]);
    result.checksum += partials[t].checksum;
    result.sampled_neighbors += partials[t].sampled_neighbors;
  }
  return result;
}

Result<RingSampler::OpenLoopResult> RingSampler::run_open_loop(
    std::span<const NodeId> targets, double arrival_rate_per_sec) {
  if (arrival_rate_per_sec <= 0) {
    return Status::invalid("arrival rate must be positive");
  }
  // Precompute Poisson arrival times (exponential interarrivals),
  // deterministic in the seed.
  std::vector<double> arrivals(targets.size());
  {
    Xoshiro256 rng(config_.seed ^ 0x5e41ULL);
    double t = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const double u = std::max(rng.uniform_double(), 1e-12);
      t += -std::log(u) / arrival_rate_per_sec;
      arrivals[i] = t;
    }
  }

  const std::size_t num_workers = config_.num_threads;
  std::vector<LatencyRecorder> recorders(num_workers);
  std::vector<EpochResult> partials(num_workers);
  std::vector<Status> statuses(num_workers);
  std::atomic<std::size_t> next{0};

  WallTimer clock;
  auto worker = [&](std::size_t t) {
    ThreadContext& ctx = *contexts_[t];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= targets.size()) return;
      // FCFS: this worker owns request i; wait for it to arrive.
      for (;;) {
        const double now = clock.elapsed_seconds();
        if (now >= arrivals[i]) break;
        const double wait = arrivals[i] - now;
        if (wait > 200e-6) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              wait - 100e-6));
        }
      }
      const NodeId target = targets[i];
      const Status status = sample_batch(
          ctx, std::span<const NodeId>(&target, 1), nullptr, partials[t]);
      if (!status.is_ok()) {
        statuses[t] = status;
        return;
      }
      const double sojourn = clock.elapsed_seconds() - arrivals[i];
      recorders[t].record_seconds(sojourn);
    }
  };

  if (num_workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (std::size_t t = 0; t < num_workers; ++t) {
      threads.emplace_back(worker, t);
    }
    for (auto& thread : threads) thread.join();
  }

  OpenLoopResult result;
  result.total_seconds = clock.elapsed_seconds();
  result.offered_rate = arrival_rate_per_sec;
  for (std::size_t t = 0; t < num_workers; ++t) {
    RS_RETURN_IF_ERROR(statuses[t]);
    result.latencies.merge(recorders[t]);
    result.checksum += partials[t].checksum;
  }
  result.achieved_rate =
      result.total_seconds > 0
          ? static_cast<double>(result.latencies.count()) /
                result.total_seconds
          : 0.0;
  return result;
}

}  // namespace rs::core
