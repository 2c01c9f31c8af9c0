#include "core/config.h"

#include <sstream>

namespace rs::core {

std::string SamplerConfig::describe() const {
  std::ostringstream out;
  out << "fanouts=[";
  for (std::size_t i = 0; i < fanouts.size(); ++i) {
    if (i) out << ',';
    out << fanouts[i];
  }
  out << "] batch=" << batch_size << " threads=" << num_threads
      << " qd=" << queue_depth << " backend="
      << io::backend_kind_name(backend)
      << (async_pipeline ? " async" : " sync")
      << (parallelism == ParallelismMode::kBatchParallel ? " batch-par"
                                                         : " intra-batch")
      << (direct_io ? " O_DIRECT" : "")
      << (register_file ? " fixed-file" : "");
  if (hot_cache_bytes > 0) out << " hot-cache=" << hot_cache_bytes << "B";
  if (cache_pin_fraction > 0) out << " pin-frac=" << cache_pin_fraction;
  if (!hotness_profile_path.empty()) {
    out << " hotness-profile=" << hotness_profile_path;
  }
  if (record_hotness) out << " record-hotness";
  if (!trace_path.empty()) out << " trace=" << trace_path;
  out << " seed=" << seed;
  return out.str();
}

}  // namespace rs::core
