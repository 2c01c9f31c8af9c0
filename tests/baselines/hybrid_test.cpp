// HybridSampler (§5 heterogeneous execution): routing by degree, both
// halves contributing, correct samples, and sane split accounting.
#include "baselines/hybrid_sampler.h"

#include <gtest/gtest.h>

#include "eval/runner.h"
#include "testutil.h"

namespace rs::baselines {
namespace {

using test::TempDir;

class HybridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Chung-Lu-like skew via ER + a hub cluster so both routes trigger.
    graph::EdgeList edges(1200);
    Xoshiro256 rng(9);
    // Low-degree bulk.
    for (NodeId v = 0; v < 1000; ++v) {
      for (int e = 0; e < 3; ++e) {
        edges.add_edge(v, static_cast<NodeId>(rng.uniform(1200)));
      }
    }
    // Hubs.
    for (NodeId h = 1000; h < 1010; ++h) {
      for (int e = 0; e < 300; ++e) {
        edges.add_edge(h, static_cast<NodeId>(rng.uniform(1200)));
      }
    }
    edges.sort();
    edges.dedup();
    csr_ = graph::Csr::from_edge_list(edges);
    base_ = test::write_test_graph(dir_, csr_);
  }

  HybridConfig small_config() const {
    HybridConfig config;
    config.fanouts = {5, 3};
    config.batch_size = 64;
    config.queue_depth = 32;
    config.degree_threshold = 5;
    config.seed = 3;
    return config;
  }

  TempDir dir_;
  graph::Csr csr_;
  std::string base_;
};

TEST_F(HybridTest, BothRoutesUsedAndSplitAccounted) {
  auto sampler = HybridSampler::open(base_, small_config());
  RS_ASSERT_OK(sampler);
  const auto targets = eval::pick_targets(csr_.num_nodes(), 400, 5);
  auto epoch = sampler.value()->run_epoch(targets);
  RS_ASSERT_OK(epoch);

  const auto& split = sampler.value()->last_split();
  EXPECT_GT(split.cpu_targets, 0u);
  EXPECT_GT(split.device_targets, 0u);
  EXPECT_GT(split.device_neighbors_examined, 0u);
  EXPECT_TRUE(epoch.value().simulated_time);
  EXPECT_GT(epoch.value().sampled_neighbors, 0u);
  // Device targets have degree <= threshold: examined <= thr * count.
  EXPECT_LE(split.device_neighbors_examined,
            split.device_targets * small_config().degree_threshold);
  // CPU half did real reads; device half did none through the pipeline.
  EXPECT_GT(epoch.value().read_ops, 0u);
  EXPECT_LT(epoch.value().read_ops, epoch.value().sampled_neighbors);
}

TEST_F(HybridTest, ThresholdZeroIsAllCpu) {
  HybridConfig config = small_config();
  config.degree_threshold = 0;
  auto sampler = HybridSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  const auto targets = eval::pick_targets(csr_.num_nodes(), 200, 5);
  auto epoch = sampler.value()->run_epoch(targets);
  RS_ASSERT_OK(epoch);
  EXPECT_EQ(sampler.value()->last_split().device_targets, 0u);
  // All sampled entries came through the pipeline, at most one
  // coalesced block read each.
  EXPECT_GT(epoch.value().read_ops, 0u);
  EXPECT_LE(epoch.value().read_ops, epoch.value().sampled_neighbors);
}

TEST_F(HybridTest, HugeThresholdIsAllDevice) {
  HybridConfig config = small_config();
  config.degree_threshold = 1 << 20;
  auto sampler = HybridSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  const auto targets = eval::pick_targets(csr_.num_nodes(), 200, 5);
  auto epoch = sampler.value()->run_epoch(targets);
  RS_ASSERT_OK(epoch);
  EXPECT_EQ(sampler.value()->last_split().cpu_targets, 0u);
  EXPECT_EQ(epoch.value().read_ops, 0u);
}

TEST_F(HybridTest, SampledVolumeMatchesAllCpuEngine) {
  // Routing must not change *how many* neighbors are sampled, only how
  // they are fetched: volume = sum of min(fanout, degree) either way
  // for the first layer.
  const auto targets = eval::pick_targets(csr_.num_nodes(), 300, 5);
  HybridConfig one_layer = small_config();
  one_layer.fanouts = {5};

  auto hybrid = HybridSampler::open(base_, one_layer);
  RS_ASSERT_OK(hybrid);
  auto hybrid_epoch = hybrid.value()->run_epoch(targets);
  RS_ASSERT_OK(hybrid_epoch);

  HybridConfig all_cpu = one_layer;
  all_cpu.degree_threshold = 0;
  auto cpu = HybridSampler::open(base_, all_cpu);
  RS_ASSERT_OK(cpu);
  auto cpu_epoch = cpu.value()->run_epoch(targets);
  RS_ASSERT_OK(cpu_epoch);

  EXPECT_EQ(hybrid_epoch.value().sampled_neighbors,
            cpu_epoch.value().sampled_neighbors);
}

TEST_F(HybridTest, BudgetAccounting) {
  MemoryBudget budget(256ULL << 20);
  {
    auto sampler = HybridSampler::open(base_, small_config(), &budget);
    RS_ASSERT_OK(sampler);
    EXPECT_GT(budget.used(), 0u);
  }
  EXPECT_EQ(budget.used(), 0u);
}

}  // namespace
}  // namespace rs::baselines
