#include "core/workspace.h"

#include <algorithm>

namespace rs::core {

Result<Workspace> Workspace::create(const SamplerConfig& config,
                                    MemoryBudget& budget) {
  RS_CHECK_MSG(!config.fanouts.empty(), "at least one sampling layer");
  const std::uint64_t max_width = config.max_width();
  // Targets of layer l are the (deduped) values of layer l-1; the widest
  // possible target set is the second-to-last layer's width (or the
  // mini-batch itself for 1-layer configs).
  const std::uint64_t max_targets =
      config.num_layers() >= 2
          ? std::max<std::uint64_t>(config.batch_size,
                                    config.max_layer_width(
                                        config.num_layers() - 2))
          : config.batch_size;

  Workspace ws;
  RS_ASSIGN_OR_RETURN(ws.values_, TrackedBuffer<NodeId>::create(
                                      budget, max_width, "workspace values"));
  RS_ASSIGN_OR_RETURN(ws.targets_,
                      TrackedBuffer<NodeId>::create(
                          budget, max_targets, "workspace targets"));
  RS_ASSIGN_OR_RETURN(ws.begins_, TrackedBuffer<std::uint32_t>::create(
                                      budget, max_targets + 1,
                                      "workspace begins"));
  return ws;
}

std::size_t Workspace::dedup_into_targets(std::size_t n) {
  RS_CHECK(n <= values_capacity());
  NodeId* begin = values();
  NodeId* end = begin + n;
  std::sort(begin, end);
  end = std::unique(begin, end);
  const auto unique_count = static_cast<std::size_t>(end - begin);
  RS_CHECK_MSG(unique_count <= targets_.size(),
               "dedup result exceeds target capacity");
  std::copy(begin, end, targets_.data());
  return unique_count;
}

}  // namespace rs::core
