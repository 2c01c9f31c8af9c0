// LayerWiseSampler: layer-wise (FastGCN/LADIES-style) sampling on the
// same SSD-resident graph — the extension the paper's §5 plans
// ("we are planning to extend it to layer-wise sampling too").
//
// Node-wise GraphSAGE samples `fanout` neighbors *per target*, so layer
// width multiplies by the fanout each hop. Layer-wise sampling instead
// fixes a *node budget per layer*: layer l selects `layer_sizes[l]`
// nodes for the whole mini-batch, drawn from the union of the current
// targets' neighborhoods with probability proportional to how many
// current targets each candidate neighbors (edge-frequency importance,
// the degree-based importance weighting of FastGCN [1]).
//
// The disk story is identical to RingSampler's: the plan is a set of
// edge-file *offsets* — k distinct positions drawn from the concatenated
// index ranges of the current targets — and only the blocks holding
// those entries are read, through the same per-thread ring + async
// pipeline. Memory
// stays O(batch state), independent of |E|.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/offset_index.h"
#include "core/pipeline.h"
#include "core/sampler_iface.h"
#include "io/file.h"
#include "util/mem_budget.h"

namespace rs::core {

struct LayerWiseConfig {
  // Node budget per layer, outermost first (analogous to fanouts).
  std::vector<std::uint32_t> layer_sizes = {512, 256, 128};
  std::uint32_t batch_size = 1024;
  std::uint32_t num_threads = 8;
  std::uint32_t queue_depth = 512;
  io::BackendKind backend = io::BackendKind::kUringPoll;
  bool async_pipeline = true;
  std::uint64_t seed = 7;
};

class LayerWiseSampler final : public Sampler {
 public:
  static Result<std::unique_ptr<LayerWiseSampler>> open(
      const std::string& graph_base, const LayerWiseConfig& config,
      MemoryBudget* budget = nullptr);

  ~LayerWiseSampler() override {
    contexts_.clear();  // pipelines release their scratch first
    if (scratch_charge_ > 0) budget_->release(scratch_charge_);
  }

  std::string name() const override { return "RingSampler-LayerWise"; }

  Result<EpochResult> run_epoch(std::span<const NodeId> targets) override;

  // Samples one mini-batch and returns the per-layer node sets and
  // sampled edges (LayerSample.targets = the layer's input targets;
  // neighbors_of(i) = the layer nodes drawn through target i's edges).
  Result<MiniBatchSample> sample_one(std::span<const NodeId> targets);

 private:
  struct ThreadContext {
    std::unique_ptr<io::IoBackend> backend;
    std::unique_ptr<ReadPipeline> pipeline;
    Xoshiro256 rng{0};
    // Scratch (capacity = max layer budget / batch size).
    std::vector<EdgeIdx> cumulative;     // prefix degrees over targets
    std::vector<SampleItem> plan;        // offsets to fetch
    std::vector<std::uint32_t> owner;    // plan[i] drawn via which target
    std::vector<NodeId> values;          // fetched entries
    std::vector<NodeId> targets;         // current layer targets
  };

  LayerWiseSampler() : internal_budget_(0) {}
  Status init(const std::string& graph_base, const LayerWiseConfig& config,
              MemoryBudget* budget);

  Status sample_batch(ThreadContext& ctx, std::span<const NodeId> batch,
                      MiniBatchSample* out, EpochResult& acc);

  LayerWiseConfig config_;
  io::File edge_file_;
  MemoryBudget internal_budget_;
  MemoryBudget* budget_ = nullptr;
  std::uint64_t scratch_charge_ = 0;
  OffsetIndex index_;
  std::vector<std::unique_ptr<ThreadContext>> contexts_;
};

}  // namespace rs::core
