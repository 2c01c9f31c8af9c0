// Ablation: extent merging of the pipeline's block reads. When sampled
// offsets are contiguous (fanout close to degree — every neighbor of a
// node sits adjacent on disk), runs of adjacent 512 B blocks can be read
// as one larger request. Sweeps the extent cap under O_DIRECT and reports read
// ops and time.
#include "bench_common.h"
#include "core/ring_sampler.h"

int main(int argc, char** argv) {
  using namespace rs;
  using namespace rs::bench;

  BenchEnv env;
  env.epochs = 2;
  ArgParser parser("ablation_extents",
                   "Extent merging sweep (O_DIRECT block reads)");
  if (!parse_env(parser, env, argc, argv)) return 0;

  // yahoo-s: low average degree => fanout >= degree for most nodes =>
  // whole (contiguous) neighborhoods get sampled => mergeable runs.
  const std::string base = dataset(env, "yahoo-s");
  const auto targets = targets_for(env, base);
  const auto options = run_options(env, base);

  Table table("Extent merging under O_DIRECT (yahoo-s)",
              {"max extent", "Time/epoch", "Read ops", "Bytes read"});
  for (const std::uint32_t cap : {1u, 2u, 4u, 8u, 16u}) {
    core::SamplerConfig config;
    config.batch_size = static_cast<std::uint32_t>(env.batch_size);
    config.num_threads = static_cast<std::uint32_t>(env.threads);
    config.queue_depth = static_cast<std::uint32_t>(env.queue_depth);
    config.seed = env.seed;
    config.direct_io = true;       // page cache bypassed
    config.enable_block_cache = false;
    // The engine forwards its queue depth as the pipeline group size;
    // the extent cap rides on the pipeline options via this knob.
    config.block_bytes = 512;
    const eval::RunOutcome outcome = eval::run_system(
        "RingSampler@ext" + std::to_string(cap),
        [&]() -> Result<std::unique_ptr<core::Sampler>> {
          core::SamplerConfig tuned = config;
          tuned.max_extent_blocks = cap;
          auto sampler = core::RingSampler::open(base, tuned);
          if (!sampler.is_ok()) return sampler.status();
          return std::unique_ptr<core::Sampler>(std::move(sampler).value());
        },
        targets, options);
    table.add_row({std::to_string(cap), outcome.cell(),
                   outcome.ok() ? Table::fmt_count(outcome.mean.read_ops)
                                : "-",
                   outcome.ok()
                       ? Table::fmt_bytes(outcome.mean.bytes_read)
                       : "-"});
  }
  emit(env, table, "ablation_extents");
  std::printf(
      "Expected shape: read ops fall as the cap rises (adjacent sampled "
      "blocks merge); bytes read rise slightly only when merged extents "
      "span blocks no sample needed.\n");
  return 0;
}
