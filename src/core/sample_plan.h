// Offset-based sample planning (paper §3.1, steps 1-3 of Fig. 2).
//
// For each target node the cursor looks up its neighbor range in the
// offset index and draws `min(fanout, degree)` *distinct edge-file
// offsets* — the neighbors themselves are never touched at planning time.
// Items are emitted lazily, one I/O group's worth per next() call, which
// is what lets the pipeline overlap planning of group k+1 with the I/O of
// group k (Fig. 3b).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/neighbor_cache.h"
#include "core/offset_index.h"
#include "core/serving_determinism.h"
#include "util/common.h"
#include "util/rng.h"

namespace rs::core {

// One planned fetch: edge-file entry `edge_idx`, destined for output
// slot `slot` in the layer's value buffer.
struct SampleItem {
  EdgeIdx edge_idx;
  std::uint32_t slot;
};

// Abstract producer of sample items (the pipeline's input).
class ItemSource {
 public:
  virtual ~ItemSource() = default;
  // Fills up to out.size() items; returns the count (0 = exhausted).
  virtual std::size_t next(std::span<SampleItem> out) = 0;
};

// Adapts a prebuilt item list to the ItemSource interface (used by the
// layer-wise sampler, whose plan is computed per layer up front, and by
// tests).
class SpanItemSource final : public ItemSource {
 public:
  explicit SpanItemSource(std::span<const SampleItem> items)
      : items_(items) {}

  std::size_t next(std::span<SampleItem> out) override {
    std::size_t n = 0;
    while (n < out.size() && pos_ < items_.size()) {
      out[n++] = items_[pos_++];
    }
    return n;
  }

 private:
  std::span<const SampleItem> items_;
  std::size_t pos_ = 0;
};

// Plans one GraphSAGE layer for one mini-batch. Slots are assigned
// contiguously in target order, so `begins` (written as a side effect)
// ends up as the per-target prefix table of the layer's sample:
// target i's neighbors land in slots [begins[i], begins[i+1]).
//
// Within a target, slots follow draw order but items are *emitted* in
// edge-index order. Values (and so checksums) are unchanged by the
// reordering, and a layer over sorted targets on a natural-layout graph
// then reaches the pipeline already in block order, so its reads
// coalesce without a sort.
class LayerSampleCursor final : public ItemSource {
 public:
  // `begins` must hold targets.size() + 1 entries and outlive the
  // cursor. When a hot-neighbor cache and the layer's value buffer are
  // supplied, targets whose adjacency is cached are sampled entirely in
  // memory (their values written directly, no items emitted). Because
  // Floyd's algorithm consumes the RNG identically whether the range is
  // [0, deg) or [begin, end), the sampled neighbors are bit-identical
  // with or without the cache.
  LayerSampleCursor(const OffsetIndex& index,
                    std::span<const NodeId> targets, std::uint32_t fanout,
                    Xoshiro256& rng, std::uint32_t* begins,
                    const NeighborCache* hot_cache = nullptr,
                    NodeId* values = nullptr,
                    bool with_replacement = false)
      : index_(index),
        targets_(targets),
        fanout_(fanout),
        rng_(rng),
        begins_(begins),
        hot_cache_(hot_cache != nullptr && hot_cache->enabled() &&
                           values != nullptr
                       ? hot_cache
                       : nullptr),
        values_(values),
        with_replacement_(with_replacement) {
    begins_[0] = 0;
  }

  // Serving mode: instead of drawing from the shared sequential stream,
  // every target gets a private Xoshiro256 seeded from (layer_seed,
  // node id) — see serving_determinism.h. This is what lets the sharded
  // router decompose a request hop by hop: target v's draws depend only
  // on the layer seed and v, never on which other targets share the
  // batch, their order, or their degrees.
  void use_per_target_seeds(std::uint64_t layer_seed) {
    per_target_seeds_ = true;
    layer_seed_ = layer_seed;
  }

  std::size_t next(std::span<SampleItem> out) override {
    std::size_t n = 0;
    while (n < out.size()) {
      if (pending_pos_ < pending_.size()) {
        out[n++] = pending_[pending_pos_++];
        continue;
      }
      if (target_i_ >= targets_.size()) break;
      // Plan the next target: sample distinct offsets from its range.
      const NodeId v = targets_[target_i_];
      if (per_target_seeds_) {
        target_rng_ = Xoshiro256(serving_target_seed(layer_seed_, v));
      }
      const EdgeIdx begin = index_.begin(v);
      const EdgeIdx end = index_.end(v);
      const auto degree = end - begin;
      // With replacement (DGL replace=True): exactly fanout draws,
      // duplicates allowed. Without (the paper's model): min(fanout,
      // degree) distinct draws.
      const std::uint64_t k =
          with_replacement_
              ? (degree > 0 ? fanout_ : 0)
              : (degree < fanout_ ? degree
                                  : static_cast<std::uint64_t>(fanout_));
      pending_.clear();
      pending_pos_ = 0;
      if (k > 0) {
        std::span<const NodeId> cached =
            hot_cache_ != nullptr ? hot_cache_->lookup(v)
                                  : std::span<const NodeId>{};
        if (!cached.empty()) {
          // Served from the hot cache: write values in place, skip I/O.
          sample_offsets(0, degree, k);
          for (const std::uint64_t idx : draws_) {
            values_[next_slot_++] = cached[idx];
          }
        } else {
          sample_offsets(begin, end, k);
          for (const EdgeIdx edge : draws_) {
            pending_.push_back({edge, next_slot_++});
          }
          std::sort(pending_.begin(), pending_.end(),
                    [](const SampleItem& a, const SampleItem& b) {
                      return a.edge_idx < b.edge_idx;
                    });
        }
      }
      begins_[target_i_ + 1] =
          begins_[target_i_] + static_cast<std::uint32_t>(k);
      ++target_i_;
    }
    return n;
  }

  // Total slots assigned so far (== layer width once exhausted).
  std::uint32_t slots_planned() const { return next_slot_; }
  bool exhausted() const {
    return target_i_ >= targets_.size() && pending_pos_ >= pending_.size();
  }

 private:
  Xoshiro256& active_rng() {
    return per_target_seeds_ ? target_rng_ : rng_;
  }

  // Draws k offsets from [lo, hi) into draws_, in draw order.
  void sample_offsets(EdgeIdx lo, EdgeIdx hi, std::uint64_t k) {
    Xoshiro256& rng = active_rng();
    draws_.clear();
    if (with_replacement_) {
      for (std::uint64_t i = 0; i < k; ++i) {
        draws_.push_back(rng.uniform_range(lo, hi));
      }
    } else {
      sample_distinct_range(rng, lo, hi, k, draws_);
    }
  }

  const OffsetIndex& index_;
  std::span<const NodeId> targets_;
  std::uint32_t fanout_;
  Xoshiro256& rng_;
  std::uint32_t* begins_;
  const NeighborCache* hot_cache_;
  NodeId* values_;
  bool with_replacement_;

  // Serving mode (use_per_target_seeds): per-target private stream.
  bool per_target_seeds_ = false;
  std::uint64_t layer_seed_ = 0;
  Xoshiro256 target_rng_{0};

  std::size_t target_i_ = 0;
  std::vector<EdgeIdx> draws_;
  // The current target's items, slotted in draw order, sorted by edge.
  std::vector<SampleItem> pending_;
  std::size_t pending_pos_ = 0;
  std::uint32_t next_slot_ = 0;
};

}  // namespace rs::core
