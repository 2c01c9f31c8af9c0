// Hotness ranking and its engine integration: profile sidecar round-trip,
// deterministic ordering, block scoring, the record_hotness hook, and the
// pinned block set sampling bit-identically to a reactive-only run.
#include "core/hotness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/ring_sampler.h"
#include "eval/runner.h"
#include "graph/layout.h"
#include "testutil.h"
#include "util/fs.h"

namespace rs::core {
namespace {

using test::TempDir;

TEST(HotnessProfileTest, SaveLoadRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("p.rshp");
  HotnessProfile profile;
  profile.counts = {0, 7, 0, 123456789ULL, 1};
  test::assert_ok(profile.save(path));

  auto loaded = HotnessProfile::load(path);
  RS_ASSERT_OK(loaded);
  EXPECT_EQ(loaded.value().counts, profile.counts);
  EXPECT_EQ(loaded.value().num_nodes(), 5u);
  EXPECT_EQ(loaded.value().hot(3), 123456789ULL);
}

TEST(HotnessProfileTest, CorruptProfileRejected) {
  TempDir dir;
  const std::string path = dir.file("p.rshp");
  HotnessProfile profile;
  profile.counts = {1, 2, 3};
  test::assert_ok(profile.save(path));

  // Wrong magic.
  auto bytes = read_file(path);
  RS_ASSERT_OK(bytes);
  std::string bad = bytes.value();
  bad[0] = static_cast<char>(~bad[0]);
  test::assert_ok(write_file(path, bad.data(), bad.size()));
  EXPECT_FALSE(HotnessProfile::load(path).is_ok());

  // Truncated payload.
  test::assert_ok(write_file(path, bytes.value().data(),
                             bytes.value().size() - sizeof(std::uint64_t)));
  EXPECT_FALSE(HotnessProfile::load(path).is_ok());

  EXPECT_FALSE(HotnessProfile::load(dir.file("missing")).is_ok());
}

// A tiny index with known degrees: node 0 -> 1 entry, node 1 -> 10,
// node 2 -> 1.
OffsetIndex small_index(MemoryBudget& budget) {
  const std::vector<EdgeIdx> offsets = {0, 1, 11, 12};
  auto index = OffsetIndex::from_offsets(offsets, budget);
  RS_CHECK_MSG(index.is_ok(), index.status().to_string());
  return std::move(index).value();
}

TEST(HotnessOrderTest, DegreeRankIsDeterministicPermutation) {
  MemoryBudget budget;
  const OffsetIndex index = small_index(budget);
  const HotnessOrder ranked = hotness_order(index, nullptr);
  ASSERT_EQ(ranked.order.size(), 3u);
  // Degree desc, ties by id asc: 1 (deg 10), then 0 and 2 (deg 1).
  EXPECT_EQ(ranked.order[0], 1u);
  EXPECT_EQ(ranked.order[1], 0u);
  EXPECT_EQ(ranked.order[2], 2u);
  EXPECT_EQ(ranked.num_hot, 3u);  // all degrees nonzero
}

TEST(HotnessOrderTest, ProfileOverridesDegree) {
  MemoryBudget budget;
  const OffsetIndex index = small_index(budget);
  HotnessProfile profile;
  profile.counts = {5, 0, 1};  // the degree-10 hub was never visited
  const HotnessOrder ranked = hotness_order(index, &profile);
  ASSERT_EQ(ranked.order.size(), 3u);
  EXPECT_EQ(ranked.order[0], 0u);
  EXPECT_EQ(ranked.order[1], 2u);
  EXPECT_EQ(ranked.order[2], 1u);  // cold despite the highest degree
  EXPECT_EQ(ranked.num_hot, 2u);   // only two nodes were visited
}

TEST(HotnessOrderTest, ZeroDegreeNodesAreNotHot) {
  MemoryBudget budget;
  const std::vector<EdgeIdx> offsets = {0, 4, 4, 8};  // node 1 isolated
  auto index = OffsetIndex::from_offsets(offsets, budget);
  RS_ASSERT_OK(index);
  const HotnessOrder ranked = hotness_order(index.value(), nullptr);
  EXPECT_EQ(ranked.num_hot, 2u);
  EXPECT_EQ(ranked.order.back(), 1u);
}

TEST(RankBlocksTest, DegreeModeScoresEveryOccupiedBlock) {
  MemoryBudget budget;
  // Two full 512-byte blocks (128 entries each), one list per block.
  const std::vector<EdgeIdx> offsets = {0, 128, 256};
  auto index = OffsetIndex::from_offsets(offsets, budget);
  RS_ASSERT_OK(index);

  const auto ranked = rank_blocks(index.value(), nullptr, 512, 16);
  // Equal scores tie-break by block id.
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 0u);
  EXPECT_EQ(ranked[1], 1u);

  const auto top1 = rank_blocks(index.value(), nullptr, 512, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0], 0u);
}

TEST(RankBlocksTest, ProfileDropsZeroScoredBlocks) {
  MemoryBudget budget;
  const std::vector<EdgeIdx> offsets = {0, 128, 256};
  auto index = OffsetIndex::from_offsets(offsets, budget);
  RS_ASSERT_OK(index);

  HotnessProfile profile;
  profile.counts = {0, 5};  // node 0 (block 0) never visited
  const auto ranked = rank_blocks(index.value(), &profile, 512, 16);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0], 1u);
}

TEST(RankBlocksTest, SplitListChargesBothBlocks) {
  MemoryBudget budget;
  // One 160-entry list straddling blocks 0 and 1 (128 + 32 entries).
  const std::vector<EdgeIdx> offsets = {0, 160};
  auto index = OffsetIndex::from_offsets(offsets, budget);
  RS_ASSERT_OK(index);
  const auto ranked = rank_blocks(index.value(), nullptr, 512, 16);
  // Block 0 holds more of the list, so it scores higher.
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 0u);
  EXPECT_EQ(ranked[1], 1u);
}

class HotnessEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    csr_ = test::make_test_csr(1500, 15000, 88);
    base_ = test::write_test_graph(dir_, csr_);
    targets_ = eval::pick_targets(csr_.num_nodes(), 300, 12);
  }

  SamplerConfig base_config() const {
    SamplerConfig config;
    config.fanouts = {6, 4};
    config.batch_size = 64;
    config.num_threads = 2;
    config.queue_depth = 32;
    config.seed = 31;
    return config;
  }

  EpochResult run(const std::string& graph, const SamplerConfig& config,
                  MemoryBudget* budget = nullptr) {
    auto sampler = RingSampler::open(graph, config, budget);
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    auto epoch = sampler.value()->run_epoch(targets_);
    RS_CHECK_MSG(epoch.is_ok(), epoch.status().to_string());
    return epoch.value();
  }

  TempDir dir_;
  graph::Csr csr_;
  std::string base_;
  std::vector<NodeId> targets_;
};

TEST_F(HotnessEngineTest, RecordHotnessCountsFrontierVisits) {
  SamplerConfig config = base_config();
  config.record_hotness = true;
  auto sampler = RingSampler::open(base_, config);
  RS_ASSERT_OK(sampler);
  ASSERT_TRUE(sampler.value()->recording_hotness());
  auto epoch = sampler.value()->run_epoch(targets_);
  RS_ASSERT_OK(epoch);

  const HotnessProfile snapshot = sampler.value()->hotness_snapshot();
  ASSERT_EQ(snapshot.num_nodes(), csr_.num_nodes());
  const std::uint64_t total = std::accumulate(
      snapshot.counts.begin(), snapshot.counts.end(), std::uint64_t{0});
  // Every epoch target is visited at least once as a layer-0 frontier.
  EXPECT_GE(total, targets_.size());

  const std::string path = dir_.file("profile.rshp");
  test::assert_ok(sampler.value()->save_hotness_profile(path));
  auto loaded = HotnessProfile::load(path);
  RS_ASSERT_OK(loaded);
  EXPECT_EQ(loaded.value().counts, snapshot.counts);
}

TEST_F(HotnessEngineTest, ReorganizedGraphSamplesBitIdentically) {
  // Offline pass: degree-ranked, exactly what rs_reorg does by default.
  MemoryBudget unlimited;
  auto index = OffsetIndex::load(base_, unlimited);
  RS_ASSERT_OK(index);
  const HotnessOrder ranked = hotness_order(index.value(), nullptr);
  const std::string hot_base = dir_.file("g_hot");
  test::assert_ok(graph::reorganize_graph(base_, hot_base, ranked.order,
                                          graph::HotnessSource::kDegree,
                                          ranked.num_hot));

  const SamplerConfig config = base_config();
  const EpochResult original = run(base_, config);
  const EpochResult reorganized = run(hot_base, config);
  // Floyd's draws consume RNG independent of where the list physically
  // lives, so moving lists must not change a single sampled neighbor.
  EXPECT_EQ(original.checksum, reorganized.checksum);
  EXPECT_EQ(original.sampled_neighbors, reorganized.sampled_neighbors);

  auto sampler = RingSampler::open(hot_base, config);
  RS_ASSERT_OK(sampler);
  EXPECT_TRUE(sampler.value()->index().has_layout());
  EXPECT_EQ(sampler.value()->index().layout_generation(), 1u);
}

TEST_F(HotnessEngineTest, PinnedBlocksServeHitsBitIdentically) {
  const EpochResult reference = run(base_, base_config());

  SamplerConfig config = base_config();
  config.cache_pin_fraction = 1.0;  // the entire cache spend is pinned

  // Budget floor for this config, then grow the cache spend until the
  // engine opens (the cache is funded before the pipelines' block
  // scratch, so too-small leftovers OOM at open — same probe the
  // hotness ablation uses).
  std::uint64_t floor_bytes = 0;
  {
    MemoryBudget probe = MemoryBudget::unlimited();
    auto sampler = RingSampler::open(base_, config, &probe);
    RS_ASSERT_OK(sampler);
    floor_bytes = probe.used();
  }
  for (std::uint64_t spend = 256u << 10;; spend += spend / 2) {
    ASSERT_LT(spend, std::uint64_t{1} << 30) << "no workable budget";
    MemoryBudget budget(floor_bytes + spend);
    auto sampler = RingSampler::open(base_, config, &budget);
    if (!sampler.is_ok()) continue;

    ASSERT_TRUE(sampler.value()->pinned_blocks().enabled());
    EXPECT_GT(sampler.value()->pinned_blocks().num_blocks(), 0u);
    EXPECT_EQ(sampler.value()->pinned_blocks().pinned_bytes(),
              sampler.value()->pinned_blocks().num_blocks() *
                  config.block_bytes);

    auto epoch = sampler.value()->run_epoch(targets_);
    RS_ASSERT_OK(epoch);
    EXPECT_GT(epoch.value().cache_hits, 0u);  // the pin set is doing work
    EXPECT_EQ(epoch.value().checksum, reference.checksum);
    return;
  }
}

TEST_F(HotnessEngineTest, ProfilePathValidatedAgainstGraph) {
  // A profile for the wrong graph must be rejected at open, not silently
  // mis-rank every node.
  HotnessProfile wrong;
  wrong.counts = {1, 2, 3};  // 3 nodes; the graph has 1500
  const std::string path = dir_.file("wrong.rshp");
  test::assert_ok(wrong.save(path));

  SamplerConfig config = base_config();
  config.hotness_profile_path = path;
  EXPECT_FALSE(RingSampler::open(base_, config).is_ok());
}

}  // namespace
}  // namespace rs::core
