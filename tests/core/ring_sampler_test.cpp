// End-to-end correctness of the RingSampler engine: every sampled
// neighbor must be a true neighbor, fanout and dedup invariants must
// hold, and every pipeline/backend/IO-mode combination must produce the
// *identical* sample under the same seed.
#include "core/ring_sampler.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "eval/runner.h"
#include "testutil.h"
#include "uring/uring_syscalls.h"
#include "util/fs.h"

namespace rs::core {
namespace {

using test::TempDir;
using test::make_test_csr;
using test::write_test_graph;

class RingSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    csr_ = make_test_csr();
    base_ = write_test_graph(dir_, csr_);
  }

  SamplerConfig small_config() const {
    SamplerConfig config;
    config.fanouts = {5, 3};
    config.batch_size = 64;
    config.num_threads = 2;
    config.queue_depth = 32;
    config.seed = 99;
    return config;
  }

  std::vector<NodeId> targets(std::size_t n, std::uint64_t seed = 3) const {
    return eval::pick_targets(csr_.num_nodes(), n, seed);
  }

  TempDir dir_;
  graph::Csr csr_;
  std::string base_;
};

// Checks the structural invariants of a sampled mini-batch against the
// ground-truth CSR.
void check_sample_valid(const graph::Csr& csr, const MiniBatchSample& sample,
                        const std::vector<std::uint32_t>& fanouts) {
  ASSERT_LE(sample.layers.size(), fanouts.size());
  for (std::size_t l = 0; l < sample.layers.size(); ++l) {
    const LayerSample& layer = sample.layers[l];
    ASSERT_EQ(layer.sample_begin.size(), layer.targets.size() + 1);
    ASSERT_EQ(layer.sample_begin.front(), 0u);
    ASSERT_EQ(layer.sample_begin.back(), layer.neighbors.size());

    for (std::size_t i = 0; i < layer.targets.size(); ++i) {
      const NodeId target = layer.targets[i];
      const auto sampled = layer.neighbors_of(i);
      const auto degree = csr.degree(target);
      // min(fanout, degree) neighbors, sampled without replacement.
      EXPECT_EQ(sampled.size(),
                std::min<std::uint64_t>(fanouts[l], degree))
          << "target " << target << " layer " << l;
      std::set<NodeId> distinct;
      for (const NodeId nbr : sampled) {
        EXPECT_TRUE(csr.has_edge(target, nbr))
            << nbr << " is not a neighbor of " << target;
        distinct.insert(nbr);
      }
      EXPECT_EQ(distinct.size(), sampled.size())
          << "duplicate sample for target " << target;
    }

    // Next layer's targets == sorted unique neighbors of this layer.
    if (l + 1 < sample.layers.size()) {
      std::set<NodeId> expected(layer.neighbors.begin(),
                                layer.neighbors.end());
      const auto& next = sample.layers[l + 1].targets;
      ASSERT_EQ(next.size(), expected.size());
      EXPECT_TRUE(std::equal(next.begin(), next.end(), expected.begin()));
      EXPECT_TRUE(std::is_sorted(next.begin(), next.end()));
    }
  }
}

TEST_F(RingSamplerTest, SampleOneProducesValidSubgraph) {
  auto sampler_result = RingSampler::open(base_, small_config());
  RS_ASSERT_OK(sampler_result);
  auto& sampler = *sampler_result.value();

  const auto seeds = targets(64);
  auto sample_result = sampler.sample_one(seeds);
  RS_ASSERT_OK(sample_result);
  const MiniBatchSample& sample = sample_result.value();

  ASSERT_EQ(sample.layers.size(), 2u);
  EXPECT_EQ(sample.layers[0].targets.size(), seeds.size());
  check_sample_valid(csr_, sample, small_config().fanouts);
}

TEST_F(RingSamplerTest, EpochCollectYieldsEveryBatchValid) {
  SamplerConfig config = small_config();
  auto sampler_result = RingSampler::open(base_, config);
  RS_ASSERT_OK(sampler_result);

  const auto seeds = targets(300);  // 5 batches of 64 (last short)
  std::vector<MiniBatchSample> batches;
  auto epoch = sampler_result.value()->run_epoch_collect(
      seeds, [&](MiniBatchSample&& s) { batches.push_back(std::move(s)); });
  RS_ASSERT_OK(epoch);

  ASSERT_EQ(batches.size(), 5u);
  std::set<std::uint32_t> indexes;
  std::uint64_t total_targets = 0;
  for (const auto& batch : batches) {
    indexes.insert(batch.batch_index);
    total_targets += batch.layers.at(0).targets.size();
    check_sample_valid(csr_, batch, config.fanouts);
  }
  EXPECT_EQ(indexes.size(), 5u);  // every batch exactly once
  EXPECT_EQ(total_targets, seeds.size());
  EXPECT_EQ(epoch.value().batches, 5u);
}

TEST_F(RingSamplerTest, DeterministicForFixedSeed) {
  const auto seeds = targets(200);
  std::uint64_t checksum1 = 0;
  std::uint64_t checksum2 = 0;
  for (std::uint64_t* out : {&checksum1, &checksum2}) {
    auto sampler = RingSampler::open(base_, small_config());
    RS_ASSERT_OK(sampler);
    auto epoch = sampler.value()->run_epoch(seeds);
    RS_ASSERT_OK(epoch);
    *out = epoch.value().checksum;
  }
  EXPECT_NE(checksum1, 0u);
  EXPECT_EQ(checksum1, checksum2);
}

TEST_F(RingSamplerTest, DifferentSeedsDiffer) {
  const auto seeds = targets(200);
  SamplerConfig a = small_config();
  SamplerConfig b = small_config();
  b.seed = a.seed + 1;
  auto sa = RingSampler::open(base_, a);
  auto sb = RingSampler::open(base_, b);
  RS_ASSERT_OK(sa);
  RS_ASSERT_OK(sb);
  auto ea = sa.value()->run_epoch(seeds);
  auto eb = sb.value()->run_epoch(seeds);
  RS_ASSERT_OK(ea);
  RS_ASSERT_OK(eb);
  EXPECT_NE(ea.value().checksum, eb.value().checksum);
}

// The heart of the reproduction: every execution strategy — sync vs
// async pipeline, every backend, buffered vs O_DIRECT, 1 vs many
// threads — must sample the exact same subgraphs.
struct ModeParam {
  std::string name;
  io::BackendKind backend;
  bool async;
  bool direct_io;
  std::uint32_t threads;
};

class RingSamplerModeTest : public ::testing::TestWithParam<ModeParam> {};

TEST_P(RingSamplerModeTest, AllModesProduceIdenticalSamples) {
  TempDir dir;
  graph::Csr csr = make_test_csr(1500, 12000, 21);
  const std::string base = write_test_graph(dir, csr);
  const auto seeds = eval::pick_targets(csr.num_nodes(), 150, 5);

  auto run_with = [&](const SamplerConfig& config) {
    auto sampler = RingSampler::open(base, config);
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    auto epoch = sampler.value()->run_epoch(seeds);
    RS_CHECK_MSG(epoch.is_ok(), epoch.status().to_string());
    return epoch.value().checksum;
  };

  SamplerConfig reference;
  reference.fanouts = {4, 3};
  reference.batch_size = 32;
  reference.num_threads = 1;
  reference.queue_depth = 16;
  reference.seed = 1234;
  reference.backend = io::BackendKind::kPsync;
  reference.async_pipeline = false;
  const std::uint64_t expected = run_with(reference);

  const ModeParam& mode = GetParam();
  SamplerConfig config = reference;
  config.backend = mode.backend;
  config.async_pipeline = mode.async;
  config.direct_io = mode.direct_io;
  config.num_threads = mode.threads;
  EXPECT_EQ(run_with(config), expected) << mode.name;
}

// Multi-thread note: per-batch RNG streams are derived from the batch's
// owning thread, so thread count changes the streams — all multi-thread
// equivalence cases keep threads == 1 vs reference, and a separate test
// checks multi-thread validity.
INSTANTIATE_TEST_SUITE_P(
    Modes, RingSamplerModeTest,
    ::testing::Values(
        ModeParam{"psync_async", io::BackendKind::kPsync, true, false, 1},
        ModeParam{"uring_sync", io::BackendKind::kUring, false, false, 1},
        ModeParam{"uring_async", io::BackendKind::kUring, true, false, 1},
        ModeParam{"uring_poll_async", io::BackendKind::kUringPoll, true,
                  false, 1},
        ModeParam{"mmap_async", io::BackendKind::kMmap, true, false, 1},
        ModeParam{"direct_io_blocks", io::BackendKind::kUringPoll, true,
                  true, 1},
        ModeParam{"psync_direct", io::BackendKind::kPsync, false, true, 1},
        ModeParam{"uring_sqpoll", io::BackendKind::kUringSqpoll, true,
                  false, 1}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(RingSamplerFixedFileTest, RegisteredFileMatchesPlain) {
  TempDir dir;
  graph::Csr csr = make_test_csr(1000, 8000, 44);
  const std::string base = write_test_graph(dir, csr);
  const auto seeds = eval::pick_targets(csr.num_nodes(), 100, 6);

  auto run_with = [&](bool register_file) {
    SamplerConfig config;
    config.fanouts = {4, 3};
    config.batch_size = 32;
    config.num_threads = 1;
    config.queue_depth = 16;
    config.seed = 77;
    config.register_file = register_file;
    auto sampler = RingSampler::open(base, config);
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    auto epoch = sampler.value()->run_epoch(seeds);
    RS_CHECK_MSG(epoch.is_ok(), epoch.status().to_string());
    return epoch.value().checksum;
  };
  EXPECT_EQ(run_with(false), run_with(true));
}

TEST_F(RingSamplerTest, MultiThreadedEpochIsValid) {
  SamplerConfig config = small_config();
  config.num_threads = 4;
  config.collect_blocks = false;
  auto sampler = RingSampler::open(base_, config);
  RS_ASSERT_OK(sampler);

  const auto seeds = targets(500);
  std::vector<MiniBatchSample> batches;
  auto epoch = sampler.value()->run_epoch_collect(
      seeds, [&](MiniBatchSample&& s) { batches.push_back(std::move(s)); });
  RS_ASSERT_OK(epoch);
  ASSERT_EQ(batches.size(), (seeds.size() + 63) / 64);
  for (const auto& batch : batches) {
    check_sample_valid(csr_, batch, config.fanouts);
  }
}

TEST_F(RingSamplerTest, IntraBatchModeIsValidAndSlowerPath) {
  SamplerConfig config = small_config();
  config.parallelism = ParallelismMode::kIntraBatch;
  config.num_threads = 2;
  auto sampler = RingSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  const auto seeds = targets(200);
  auto epoch = sampler.value()->run_epoch(seeds);
  RS_ASSERT_OK(epoch);
  EXPECT_GT(epoch.value().sampled_neighbors, 0u);
  EXPECT_EQ(epoch.value().batches, (seeds.size() + 63) / 64);
}

TEST_F(RingSamplerTest, ZeroDegreeTargetsYieldEmptySamples) {
  // A graph where node 0 has no out-edges.
  graph::EdgeList edges(10);
  edges.add_edge(1, 2);
  edges.add_edge(1, 3);
  edges.add_edge(2, 3);
  graph::Csr csr = graph::Csr::from_edge_list(edges);
  TempDir dir;
  const std::string base = write_test_graph(dir, csr);

  SamplerConfig config;
  config.fanouts = {3, 2};
  config.batch_size = 8;
  config.num_threads = 1;
  config.queue_depth = 8;
  auto sampler = RingSampler::open(base, config);
  RS_ASSERT_OK(sampler);

  const std::vector<NodeId> seeds = {0};
  auto sample = sampler.value()->sample_one(seeds);
  RS_ASSERT_OK(sample);
  ASSERT_GE(sample.value().layers.size(), 1u);
  EXPECT_TRUE(sample.value().layers[0].neighbors.empty());
}

TEST_F(RingSamplerTest, FanoutLargerThanDegreeTakesWholeNeighborhood) {
  SamplerConfig config = small_config();
  config.fanouts = {1000};  // >> any degree in the test graph
  auto sampler = RingSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  const auto seeds = targets(32);
  auto sample = sampler.value()->sample_one(seeds);
  RS_ASSERT_OK(sample);
  const LayerSample& layer = sample.value().layers[0];
  for (std::size_t i = 0; i < layer.targets.size(); ++i) {
    const NodeId v = layer.targets[i];
    const auto sampled = layer.neighbors_of(i);
    ASSERT_EQ(sampled.size(), csr_.degree(v));
    // With k == degree the sample must be the entire neighborhood.
    std::vector<NodeId> got(sampled.begin(), sampled.end());
    std::sort(got.begin(), got.end());
    const auto want = csr_.neighbors(v);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                           want.end()));
  }
}

TEST_F(RingSamplerTest, WithReplacementDrawsExactlyFanout) {
  SamplerConfig config = small_config();
  config.sample_with_replacement = true;
  config.fanouts = {50};  // far above most degrees in the test graph
  auto sampler = RingSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  const auto seeds = targets(64);
  auto sample = sampler.value()->sample_one(seeds);
  RS_ASSERT_OK(sample);
  const LayerSample& layer = sample.value().layers[0];
  bool saw_duplicate = false;
  for (std::size_t i = 0; i < layer.targets.size(); ++i) {
    const NodeId v = layer.targets[i];
    const auto sampled = layer.neighbors_of(i);
    if (csr_.degree(v) == 0) {
      EXPECT_TRUE(sampled.empty());
      continue;
    }
    // replace=True: exactly fanout draws regardless of degree.
    ASSERT_EQ(sampled.size(), 50u) << "target " << v;
    std::set<NodeId> distinct;
    for (const NodeId nbr : sampled) {
      EXPECT_TRUE(csr_.has_edge(v, nbr));
      distinct.insert(nbr);
    }
    saw_duplicate |= distinct.size() < sampled.size();
  }
  // With fanout 50 over degrees ~8, duplicates are certain.
  EXPECT_TRUE(saw_duplicate);
}

TEST_F(RingSamplerTest, BudgetTooSmallReportsOom) {
  MemoryBudget budget(1 << 16);  // 64 KB: not even the offset index fits
  auto sampler = RingSampler::open(base_, small_config(), &budget);
  ASSERT_FALSE(sampler.is_ok());
  EXPECT_EQ(sampler.status().code(), ErrorCode::kOutOfMemory);
}

TEST_F(RingSamplerTest, GenerousBudgetRunsAndTracksPeak) {
  MemoryBudget budget(512ULL << 20);
  SamplerConfig config = small_config();
  auto sampler = RingSampler::open(base_, config, &budget);
  RS_ASSERT_OK(sampler);
  EXPECT_GT(budget.used(), 0u);
  auto epoch = sampler.value()->run_epoch(targets(128));
  RS_ASSERT_OK(epoch);
  EXPECT_GE(epoch.value().peak_memory_bytes, budget.used());
}

TEST_F(RingSamplerTest, BudgetedRunUsesBlockCache) {
  // Direct I/O + leftover budget => block cache; repeated epochs over
  // the same targets should hit it.
  MemoryBudget budget(256ULL << 20);
  SamplerConfig config = small_config();
  config.direct_io = true;
  auto sampler = RingSampler::open(base_, config, &budget);
  RS_ASSERT_OK(sampler);
  const auto seeds = targets(256);
  RS_ASSERT_OK(sampler.value()->run_epoch(seeds));
  auto second = sampler.value()->run_epoch(seeds);
  RS_ASSERT_OK(second);
  EXPECT_GT(second.value().cache_hits, 0u);
}

TEST_F(RingSamplerTest, OnDemandRecordsPerRequestCompletions) {
  SamplerConfig config = small_config();
  config.num_threads = 2;
  auto sampler = RingSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  const auto seeds = targets(500);
  auto result = sampler.value()->run_on_demand(seeds);
  RS_ASSERT_OK(result);
  auto& r = result.value();
  EXPECT_EQ(r.latencies.count(), seeds.size());
  EXPECT_GT(r.sampled_neighbors, 0u);
  // Completion times are measured from run start: monotone percentiles.
  EXPECT_LE(r.latencies.percentile_seconds(50),
            r.latencies.percentile_seconds(99));
  EXPECT_LE(r.latencies.percentile_seconds(99), r.total_seconds + 1e-3);
}

TEST_F(RingSamplerTest, EmptyTargetListIsAnEmptyEpoch) {
  auto sampler = RingSampler::open(base_, small_config());
  RS_ASSERT_OK(sampler);
  auto epoch = sampler.value()->run_epoch({});
  RS_ASSERT_OK(epoch);
  EXPECT_EQ(epoch.value().batches, 0u);
  EXPECT_EQ(epoch.value().sampled_neighbors, 0u);
}

TEST_F(RingSamplerTest, InvalidConfigsRejected) {
  SamplerConfig config = small_config();
  config.fanouts.clear();
  EXPECT_FALSE(RingSampler::open(base_, config).is_ok());

  config = small_config();
  config.num_threads = 0;
  EXPECT_FALSE(RingSampler::open(base_, config).is_ok());

  config = small_config();
  EXPECT_FALSE(RingSampler::open(dir_.file("nonexistent"), config).is_ok());
}

TEST_F(RingSamplerTest, TruncatedEdgeFileSurfacesIoErrorNotCrash) {
  // Corrupt deployment: the offset index promises more edges than the
  // edge file holds. Sampling past EOF must fail cleanly with an I/O
  // error (short read), never crash or return garbage silently.
  TempDir dir;
  const std::string base = write_test_graph(dir, csr_, "trunc");
  auto content = read_file(graph::edges_path(base));
  RS_ASSERT_OK(content);
  test::assert_ok(write_file(graph::edges_path(base),
                             content.value().data(),
                             content.value().size() / 8));

  auto sampler = RingSampler::open(base, small_config());
  RS_ASSERT_OK(sampler);  // open only reads the (intact) index
  auto epoch = sampler.value()->run_epoch(targets(300));
  ASSERT_FALSE(epoch.is_ok());
  EXPECT_EQ(epoch.status().code(), ErrorCode::kIoError);
}

TEST_F(RingSamplerTest, ReadStatsAccountForSampledEntries) {
  SamplerConfig config = small_config();
  config.backend = io::BackendKind::kPsync;
  auto sampler = RingSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  const auto seeds = targets(128);
  auto epoch = sampler.value()->run_epoch(seeds);
  RS_ASSERT_OK(epoch);
  const auto& r = epoch.value();
  // Sample-proportional I/O: at most one block-aligned read, and one
  // block of bytes, per sampled neighbor.
  EXPECT_GT(r.read_ops, 0u);
  EXPECT_LE(r.read_ops, r.sampled_neighbors);
  EXPECT_LE(r.bytes_read, r.sampled_neighbors * config.block_bytes);
  EXPECT_EQ(r.bytes_read % config.block_bytes, 0u);
}

}  // namespace
}  // namespace rs::core
