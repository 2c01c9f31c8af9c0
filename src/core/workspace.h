// Per-thread sampling workspace (paper §3.1: "three thread-local
// workspaces for intermediate storage of offsets, neighbors, and target
// nodes"). Each worker owns one, so there is no cross-thread contention;
// capacity is the worst-case layer width of one mini-batch — memory
// therefore scales with the thread count but is independent of |E|.
//
// Buffer roles:
//   values  — fetched neighbor ids of the current layer ("neighbors")
//   targets — the current layer's target nodes
//   begins  — per-target prefix table into values
// Sampled offsets are not stored layer-wide: the LayerSampleCursor plans
// them lazily, one I/O group at a time (the "offsets" workspace is the
// pipeline's double-buffered group scratch).
#pragma once

#include <span>

#include "core/config.h"
#include "util/mem_budget.h"
#include "util/status.h"

namespace rs::core {

class Workspace {
 public:
  Workspace() = default;

  static Result<Workspace> create(const SamplerConfig& config,
                                  MemoryBudget& budget);

  NodeId* values() { return values_.data(); }
  std::size_t values_capacity() const { return values_.size(); }

  NodeId* targets() { return targets_.data(); }
  std::size_t targets_capacity() const { return targets_.size(); }

  std::uint32_t* begins() { return begins_.data(); }
  std::size_t begins_capacity() const { return begins_.size(); }

  // Sorts values[0, n) in place, removes duplicates, and copies the
  // unique survivors into the target buffer (paper Fig. 1b: "sort and
  // deduplicate" between layers). Returns the unique count.
  std::size_t dedup_into_targets(std::size_t n);

  std::uint64_t memory_bytes() const {
    return values_capacity() * sizeof(NodeId) +
           targets_.size() * sizeof(NodeId) +
           begins_.size() * sizeof(std::uint32_t);
  }

 private:
  TrackedBuffer<NodeId> values_;
  TrackedBuffer<NodeId> targets_;
  TrackedBuffer<std::uint32_t> begins_;
};

}  // namespace rs::core
