// LayerWiseSampler (the paper's §5 layer-wise extension): per-layer node
// budgets are respected, every sampled node is reachable through a
// current target, importance weighting follows edge frequency, and the
// epoch machinery (threads, budgets, determinism) behaves like the
// node-wise engine's.
#include "core/layerwise_sampler.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "eval/runner.h"
#include "testutil.h"

namespace rs::core {
namespace {

using test::TempDir;

class LayerWiseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    csr_ = test::make_test_csr(2000, 16000, 77);
    base_ = test::write_test_graph(dir_, csr_);
  }

  LayerWiseConfig small_config() const {
    LayerWiseConfig config;
    config.layer_sizes = {64, 32};
    config.batch_size = 32;
    config.num_threads = 2;
    config.queue_depth = 32;
    config.seed = 5;
    return config;
  }

  TempDir dir_;
  graph::Csr csr_;
  std::string base_;
};

TEST_F(LayerWiseTest, SampleRespectsBudgetsAndEdges) {
  auto sampler = LayerWiseSampler::open(base_, small_config());
  RS_ASSERT_OK(sampler);
  const auto seeds = eval::pick_targets(csr_.num_nodes(), 32, 2);
  auto sample = sampler.value()->sample_one(seeds);
  RS_ASSERT_OK(sample);

  ASSERT_EQ(sample.value().layers.size(), 2u);
  const auto& config = small_config();
  for (std::size_t l = 0; l < 2; ++l) {
    const LayerSample& layer = sample.value().layers[l];
    // Node budget respected.
    EXPECT_LE(layer.neighbors.size(), config.layer_sizes[l]);
    // Every sampled node reached through a real edge of its owner.
    for (std::size_t i = 0; i < layer.targets.size(); ++i) {
      for (const NodeId nbr : layer.neighbors_of(i)) {
        EXPECT_TRUE(csr_.has_edge(layer.targets[i], nbr))
            << layer.targets[i] << "->" << nbr;
      }
    }
  }
  // Layer 1 targets = distinct layer-0 samples.
  std::set<NodeId> expected(sample.value().layers[0].neighbors.begin(),
                            sample.value().layers[0].neighbors.end());
  const auto& next = sample.value().layers[1].targets;
  EXPECT_EQ(next.size(), expected.size());
  EXPECT_TRUE(std::equal(next.begin(), next.end(), expected.begin()));
}

TEST_F(LayerWiseTest, BudgetSmallerThanUnionTruncates) {
  LayerWiseConfig config = small_config();
  config.layer_sizes = {8};
  auto sampler = LayerWiseSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  const auto seeds = eval::pick_targets(csr_.num_nodes(), 32, 2);
  auto sample = sampler.value()->sample_one(seeds);
  RS_ASSERT_OK(sample);
  EXPECT_EQ(sample.value().layers[0].neighbors.size(), 8u);
}

TEST_F(LayerWiseTest, BudgetLargerThanEdgesTakesAll) {
  // A tiny graph: total incident edges < budget -> every edge sampled.
  graph::EdgeList edges(8);
  edges.add_edge(0, 1);
  edges.add_edge(0, 2);
  edges.add_edge(1, 3);
  const graph::Csr csr = graph::Csr::from_edge_list(edges);
  TempDir dir;
  const std::string base = test::write_test_graph(dir, csr);
  LayerWiseConfig config = small_config();
  config.layer_sizes = {100};
  config.batch_size = 8;
  auto sampler = LayerWiseSampler::open(base, config);
  RS_ASSERT_OK(sampler);
  const std::vector<NodeId> seeds = {0, 1};
  auto sample = sampler.value()->sample_one(seeds);
  RS_ASSERT_OK(sample);
  // deg(0)=2, deg(1)=1: all three edges drawn.
  EXPECT_EQ(sample.value().layers[0].neighbors.size(), 3u);
}

TEST_F(LayerWiseTest, ImportanceFollowsEdgeFrequency) {
  // Two targets point at 'popular'; one target points at 'rare'. With a
  // budget of 1 over the 3 edges, popular should be drawn ~2/3 of runs.
  graph::EdgeList edges(8);
  const NodeId popular = 5;
  const NodeId rare = 6;
  edges.add_edge(0, popular);
  edges.add_edge(1, popular);
  edges.add_edge(2, rare);
  const graph::Csr csr = graph::Csr::from_edge_list(edges);
  TempDir dir;
  const std::string base = test::write_test_graph(dir, csr);

  LayerWiseConfig config = small_config();
  config.layer_sizes = {1};
  config.batch_size = 4;
  config.num_threads = 1;
  auto sampler = LayerWiseSampler::open(base, config);
  RS_ASSERT_OK(sampler);

  const std::vector<NodeId> seeds = {0, 1, 2};
  std::map<NodeId, int> counts;
  constexpr int kTrials = 3000;
  for (int t = 0; t < kTrials; ++t) {
    auto sample = sampler.value()->sample_one(seeds);
    RS_ASSERT_OK(sample);
    ASSERT_EQ(sample.value().layers[0].neighbors.size(), 1u);
    ++counts[sample.value().layers[0].neighbors[0]];
  }
  // Binomial(3000, 2/3): mean 2000, sd ~26; allow 5 sd.
  EXPECT_NEAR(counts[popular], 2000, 130);
  EXPECT_NEAR(counts[rare], 1000, 130);
}

TEST_F(LayerWiseTest, EpochDeterministicPerSeedAndThreaded) {
  const auto targets = eval::pick_targets(csr_.num_nodes(), 300, 9);
  auto checksum_of = [&](const LayerWiseConfig& config) {
    auto sampler = LayerWiseSampler::open(base_, config);
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    auto epoch = sampler.value()->run_epoch(targets);
    RS_CHECK_MSG(epoch.is_ok(), epoch.status().to_string());
    return epoch.value().checksum;
  };
  const std::uint64_t a = checksum_of(small_config());
  const std::uint64_t b = checksum_of(small_config());
  EXPECT_EQ(a, b);
  LayerWiseConfig other = small_config();
  other.seed = 6;
  EXPECT_NE(a, checksum_of(other));
}

TEST_F(LayerWiseTest, SampledVolumeBoundedByLayerBudgets) {
  auto sampler = LayerWiseSampler::open(base_, small_config());
  RS_ASSERT_OK(sampler);
  const auto targets = eval::pick_targets(csr_.num_nodes(), 300, 4);
  auto epoch = sampler.value()->run_epoch(targets);
  RS_ASSERT_OK(epoch);
  const auto& r = epoch.value();
  // <= sum(layer budgets) per batch — the key contrast with node-wise
  // sampling, whose volume multiplies by fanout per layer.
  const std::uint64_t cap = r.batches * (64 + 32);
  EXPECT_LE(r.sampled_neighbors, cap);
  EXPECT_GT(r.sampled_neighbors, 0u);
  // Coalesced block reads: at most one per sampled entry.
  EXPECT_GT(r.read_ops, 0u);
  EXPECT_LE(r.read_ops, r.sampled_neighbors);
}

TEST_F(LayerWiseTest, BudgetAccounting) {
  MemoryBudget budget(256ULL << 20);
  {
    auto sampler =
        LayerWiseSampler::open(base_, small_config(), &budget);
    RS_ASSERT_OK(sampler);
    EXPECT_GT(budget.used(), 0u);
    auto epoch = sampler.value()->run_epoch(
        eval::pick_targets(csr_.num_nodes(), 100, 1));
    RS_ASSERT_OK(epoch);
  }
  EXPECT_EQ(budget.used(), 0u);

  MemoryBudget tiny(1 << 10);
  auto oom = LayerWiseSampler::open(base_, small_config(), &tiny);
  ASSERT_FALSE(oom.is_ok());
  EXPECT_EQ(oom.status().code(), ErrorCode::kOutOfMemory);
}

TEST_F(LayerWiseTest, InvalidConfigsRejected) {
  LayerWiseConfig config = small_config();
  config.layer_sizes.clear();
  EXPECT_FALSE(LayerWiseSampler::open(base_, config).is_ok());
  config = small_config();
  config.num_threads = 0;
  EXPECT_FALSE(LayerWiseSampler::open(base_, config).is_ok());
}

}  // namespace
}  // namespace rs::core
