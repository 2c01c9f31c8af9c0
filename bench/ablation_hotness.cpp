// Hotness ablation: what do the offline layout pass (rs_reorg) and the
// BGL-style static pin set each buy, separately and together, at equal
// memory budget?
//
// Protocol: a profiling epoch records per-node visit counts
// (record_hotness), the graph is reorganized hottest-first from that
// profile, then every budget is swept across four arms —
//   reactive   original layout, fully reactive per-thread caches
//   pinned     original layout, half the cache spend pinned to the
//              top-ranked blocks (shared across threads)
//   reorg      reorganized layout, fully reactive caches
//   both       reorganized layout + pin set
// reporting block-cache hit rate, bytes-read amplification (bytes read
// from the SSD per byte of sampled neighbor data), and epoch time.
//
// Correctness gates (the bench aborts on violation): every arm's sample
// checksum is bit-identical — the layout only moves lists, never
// relabels nodes, and the pin set never changes what a read returns —
// and at each budget the "both" arm beats "reactive" on hit rate and
// amplification.
#include <algorithm>

#include "bench_common.h"
#include "core/hotness.h"
#include "core/ring_sampler.h"
#include "graph/layout.h"

int main(int argc, char** argv) {
  using namespace rs;
  using namespace rs::bench;

  BenchEnv env;
  env.epochs = 2;
  env.scale = 0.05;
  ArgParser parser("ablation_hotness",
                   "hot layout + pinned cache vs reactive caching");
  if (!parse_env(parser, env, argc, argv)) return 0;

  const std::string base = dataset(env, "friendster-s");
  const auto targets = targets_for(env, base);
  const auto options = run_options(env, base);

  auto make_config = [&]() {
    core::SamplerConfig config;
    config.batch_size = static_cast<std::uint32_t>(env.batch_size);
    config.num_threads = static_cast<std::uint32_t>(env.threads);
    config.queue_depth = static_cast<std::uint32_t>(env.queue_depth);
    config.seed = env.seed;
    config.register_buffers = fixed_buffer_mode(env);
    return config;
  };

  // Profiling epoch: record which adjacency lists sampling actually
  // visits, under this target set and fanout schedule.
  const std::string profile_path = base + ".rshp";
  {
    core::SamplerConfig config = make_config();
    config.record_hotness = true;
    auto sampler = core::RingSampler::open(base, config);
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    auto epoch = sampler.value()->run_epoch(targets);
    RS_CHECK_MSG(epoch.is_ok(), epoch.status().to_string());
    const Status saved =
        sampler.value()->save_hotness_profile(profile_path);
    RS_CHECK_MSG(saved.is_ok(), saved.to_string());
  }

  // Offline pass: rewrite the edge file hottest-first (what tools/rs_reorg
  // does; rewritten every run so the layout matches this profile).
  const std::string hot_base = base + "_hot";
  {
    MemoryBudget unlimited = MemoryBudget::unlimited();
    auto index = core::OffsetIndex::load(base, unlimited);
    RS_CHECK_MSG(index.is_ok(), index.status().to_string());
    auto profile = core::HotnessProfile::load(profile_path);
    RS_CHECK_MSG(profile.is_ok(), profile.status().to_string());
    const core::HotnessOrder ranked =
        core::hotness_order(index.value(), &profile.value());
    const Status reorg = graph::reorganize_graph(
        base, hot_base, ranked.order,
        graph::HotnessSource::kSampledProfile, ranked.num_hot);
    RS_CHECK_MSG(reorg.is_ok(), reorg.to_string());
  }

  // Budget floor: what one sampler needs before any cache spend. The
  // reorganized graph carries the physical-layout array, so probe both
  // layouts and take the max.
  std::uint64_t floor_bytes = 0;
  for (const std::string& graph : {base, hot_base}) {
    MemoryBudget probe = MemoryBudget::unlimited();
    auto sampler = core::RingSampler::open(graph, make_config(), &probe);
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    floor_bytes = std::max(floor_bytes, probe.used());
  }

  auto meta = graph::read_meta(base);
  RS_CHECK_MSG(meta.is_ok(), meta.status().to_string());
  const std::uint64_t edge_bytes =
      meta.value().num_edges * kEdgeEntryBytes;

  struct Arm {
    const char* label;
    bool reorganized;  // sample the hot layout
    bool pinned;       // give half the cache spend to the pin set
  };
  const Arm arms[] = {
      {"reactive", false, false},
      {"pinned", false, true},
      {"reorg", true, false},
      {"both", true, true},
  };

  auto arm_config = [&](const Arm& arm) {
    core::SamplerConfig config = make_config();
    config.cache_pin_fraction = arm.pinned ? 0.5 : 0.0;
    if (arm.pinned) config.hotness_profile_path = profile_path;
    return config;
  };
  auto arm_graph = [&](const Arm& arm) -> const std::string& {
    return arm.reorganized ? hot_base : base;
  };

  // Minimum workable cache spend: the engine hands cache_budget_fraction
  // of the leftover to the caches *before* charging the pipelines' block
  // scratch, so a too-small leftover OOMs at open. Probe upward until
  // every arm opens — keeps the sweep valid at any scale/thread count
  // without hardcoding the engine's scratch formula.
  std::uint64_t min_spend = 256u << 10;
  for (;; min_spend += min_spend / 2) {
    RS_CHECK_MSG(min_spend < (std::uint64_t{1} << 32),
                 "no workable cache budget found");
    bool all_open = true;
    for (const Arm& arm : arms) {
      MemoryBudget budget(floor_bytes + min_spend);
      if (!core::RingSampler::open(arm_graph(arm), arm_config(arm), &budget)
               .is_ok()) {
        all_open = false;
        break;
      }
    }
    if (all_open) break;
  }

  Table table("Hotness ablation (layout x pin set, equal budget)",
              {"Cache budget", "Arm", "Hit rate", "Amplification",
               "Time/epoch"});

  bool gates_ok = true;
  // Cache spend well under the edge file size — when the whole graph
  // fits, every arm trivially converges.
  for (const std::uint64_t sweep : {edge_bytes / 8, edge_bytes / 2}) {
    const std::uint64_t cache_bytes = std::max(sweep, min_spend);
    const std::uint64_t limit = floor_bytes + cache_bytes;
    double reactive_hit_rate = -1;
    double reactive_amplification = -1;
    std::uint64_t reference_checksum = 0;
    bool have_reference = false;

    for (const Arm& arm : arms) {
      const core::SamplerConfig config = arm_config(arm);
      const std::string& graph = arm_graph(arm);
      MemoryBudget budget(limit);
      const eval::RunOutcome outcome = eval::run_system(
          std::string("RingSampler/") + arm.label,
          [&]() -> Result<std::unique_ptr<core::Sampler>> {
            auto sampler = core::RingSampler::open(graph, config, &budget);
            if (!sampler.is_ok()) return sampler.status();
            return std::unique_ptr<core::Sampler>(
                std::move(sampler).value());
          },
          targets, options);
      RS_CHECK_MSG(outcome.ok(), outcome.failure);

      // The layout pass moves lists without relabeling nodes and the pin
      // set never changes what a read returns, so all four arms must
      // sample the exact same neighbors.
      if (!have_reference) {
        reference_checksum = outcome.mean.checksum;
        have_reference = true;
      } else if (outcome.mean.checksum != reference_checksum) {
        std::fprintf(stderr,
                     "FAIL: arm %s checksum diverged at budget %llu\n",
                     arm.label,
                     static_cast<unsigned long long>(cache_bytes));
        gates_ok = false;
      }

      const double sampled_bytes = static_cast<double>(
          outcome.mean.sampled_neighbors * sizeof(NodeId));
      const double hit_rate =
          outcome.mean.sampled_neighbors > 0
              ? static_cast<double>(outcome.mean.cache_hits) /
                    static_cast<double>(outcome.mean.sampled_neighbors)
              : 0.0;
      const double amplification =
          sampled_bytes > 0
              ? static_cast<double>(outcome.mean.bytes_read) / sampled_bytes
              : 0.0;
      if (std::string(arm.label) == "reactive") {
        reactive_hit_rate = hit_rate;
        reactive_amplification = amplification;
      } else if (std::string(arm.label) == "both") {
        if (!(hit_rate > reactive_hit_rate)) {
          std::fprintf(
              stderr,
              "FAIL: both arm hit rate %.4f <= reactive %.4f at %llu\n",
              hit_rate, reactive_hit_rate,
              static_cast<unsigned long long>(cache_bytes));
          gates_ok = false;
        }
        if (!(amplification < reactive_amplification)) {
          std::fprintf(
              stderr,
              "FAIL: both arm amplification %.3f >= reactive %.3f at "
              "%llu\n",
              amplification, reactive_amplification,
              static_cast<unsigned long long>(cache_bytes));
          gates_ok = false;
        }
      }

      table.add_row({Table::fmt_bytes(cache_bytes), arm.label,
                     Table::fmt_double(hit_rate * 100.0, 1) + "%",
                     Table::fmt_double(amplification, 2) + "x",
                     outcome.cell()});
    }
  }

  emit(env, table, "ablation_hotness");
  if (!gates_ok) {
    std::fprintf(stderr, "hotness ablation gates FAILED\n");
    return 1;
  }
  std::printf("hotness ablation gates passed: checksums bit-identical, "
              "pinned+reorg beats reactive\n");
  return 0;
}
