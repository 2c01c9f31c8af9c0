// Ablation for the core §3.1 claim: index-based (offset) sampling reads
// only the blocks holding sampled entries (at most one 512 B block per
// sampled edge), while conventional out-of-core samplers load
// each target's *entire* neighbor list before sampling in memory. We run
// both against the same on-disk graph and report measured time and I/O
// volume. On skewed graphs the gap grows with hub degree.
#include "bench_common.h"
#include "core/ring_sampler.h"
#include "io/file.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace rs;

// The full-neighborhood strawman: for every target, pread its whole
// adjacency from the edge file, then sample in memory (the access
// pattern of Ginex/GNNDrive-style samplers, minus their caches).
struct FullFetchResult {
  double seconds = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t sampled = 0;
};

Result<FullFetchResult> run_full_fetch(const std::string& base,
                                       std::span<const NodeId> targets,
                                       std::span<const std::uint32_t> fanouts,
                                       std::uint64_t seed) {
  RS_ASSIGN_OR_RETURN(auto offsets, graph::load_offsets(base));
  RS_ASSIGN_OR_RETURN(
      io::File file,
      io::File::open(graph::edges_path(base), io::OpenMode::kRead));

  Xoshiro256 rng(seed);
  FullFetchResult result;
  std::vector<NodeId> neighborhood;
  std::vector<NodeId> layer_targets(targets.begin(), targets.end());
  std::vector<NodeId> sampled;
  std::vector<std::uint64_t> picked;

  WallTimer timer;
  for (const std::uint32_t fanout : fanouts) {
    sampled.clear();
    for (const NodeId v : layer_targets) {
      const EdgeIdx begin = offsets[v];
      const EdgeIdx degree = offsets[v + 1] - begin;
      if (degree == 0) continue;
      // Load the complete neighbor list from disk.
      neighborhood.resize(degree);
      RS_RETURN_IF_ERROR(file.pread_exact(neighborhood.data(),
                                          degree * kEdgeEntryBytes,
                                          begin * kEdgeEntryBytes));
      ++result.read_ops;
      result.bytes_read += degree * kEdgeEntryBytes;
      const std::uint64_t k = std::min<std::uint64_t>(fanout, degree);
      picked.clear();
      sample_distinct_range(rng, 0, degree, k, picked);
      for (const std::uint64_t idx : picked) {
        sampled.push_back(neighborhood[idx]);
      }
    }
    result.sampled += sampled.size();
    std::sort(sampled.begin(), sampled.end());
    sampled.erase(std::unique(sampled.begin(), sampled.end()),
                  sampled.end());
    layer_targets = sampled;
  }
  result.seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rs;
  using namespace rs::bench;

  BenchEnv env;
  env.epochs = 1;
  ArgParser parser(
      "ablation_offset_vs_full",
      "S3.1 ablation: offset-based reads vs full-neighborhood loads");
  if (!parse_env(parser, env, argc, argv)) return 0;

  Table table("Offset-based sampling vs full-neighborhood loading",
              {"Graph", "Mode", "Time", "Read ops", "Bytes read",
               "I/O reduction"});

  for (const std::string name : {"ogbn-papers-s", "friendster-s"}) {
    const std::string base = dataset(env, name);
    const auto targets = targets_for(env, base);

    core::SamplerConfig config;
    config.batch_size = static_cast<std::uint32_t>(env.batch_size);
    config.num_threads = 1;  // apples-to-apples with the serial strawman
    config.queue_depth = static_cast<std::uint32_t>(env.queue_depth);
    config.seed = env.seed;
    auto sampler = core::RingSampler::open(base, config);
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    auto epoch = sampler.value()->run_epoch(targets);
    RS_CHECK_MSG(epoch.is_ok(), epoch.status().to_string());
    const auto& ring = epoch.value();

    auto full = run_full_fetch(base, targets, config.fanouts, env.seed);
    RS_CHECK_MSG(full.is_ok(), full.status().to_string());
    const auto& fetched = full.value();

    table.add_row({name, "offset (RingSampler)",
                   Table::fmt_seconds(ring.seconds),
                   Table::fmt_count(ring.read_ops),
                   Table::fmt_bytes(ring.bytes_read), "1.0x"});
    const double reduction =
        ring.bytes_read > 0
            ? static_cast<double>(fetched.bytes_read) /
                  static_cast<double>(ring.bytes_read)
            : 0.0;
    table.add_row({name, "full neighborhood",
                   Table::fmt_seconds(fetched.seconds),
                   Table::fmt_count(fetched.read_ops),
                   Table::fmt_bytes(fetched.bytes_read),
                   Table::fmt_double(reduction, 1) + "x more"});
  }
  emit(env, table, "ablation_offset_vs_full");
  std::printf(
      "Paper claim to check: offset-based sampling eliminates the "
      "unnecessary I/O of full-neighborhood loading (hub nodes can have "
      "hundreds of thousands of neighbors).\n");
  return 0;
}
