// LayerSampleCursor: offsets stay within each target's range, are
// distinct per target, begins[] forms the right prefix table, each
// target's items come out in edge order with its draw-order slots, and
// lazy emission across arbitrary next() chunk sizes is seamless.
#include "core/sample_plan.h"

#include <gtest/gtest.h>

#include <set>

#include "testutil.h"

namespace rs::core {
namespace {

OffsetIndex make_index(MemoryBudget& budget,
                       const std::vector<EdgeIdx>& offsets) {
  auto result = OffsetIndex::from_offsets(offsets, budget);
  RS_CHECK_MSG(result.is_ok(), result.status().to_string());
  return std::move(result).value();
}

TEST(LayerSampleCursorTest, PlansWithinRangesAndDistinct) {
  MemoryBudget budget;
  // Degrees: 5, 0, 3, 10.
  const OffsetIndex index = make_index(budget, {0, 5, 5, 8, 18});
  const std::vector<NodeId> targets = {0, 1, 2, 3};
  std::vector<std::uint32_t> begins(targets.size() + 1);
  Xoshiro256 rng(42);
  LayerSampleCursor cursor(index, targets, /*fanout=*/4, rng,
                           begins.data());

  std::vector<SampleItem> items(64);
  const std::size_t n = cursor.next(items);
  // k per target: min(4,5)=4, min(4,0)=0, min(4,3)=3, min(4,10)=4 -> 11.
  ASSERT_EQ(n, 11u);
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_EQ(cursor.slots_planned(), 11u);

  // begins prefix: 0, 4, 4, 7, 11.
  EXPECT_EQ(begins[0], 0u);
  EXPECT_EQ(begins[1], 4u);
  EXPECT_EQ(begins[2], 4u);
  EXPECT_EQ(begins[3], 7u);
  EXPECT_EQ(begins[4], 11u);

  // Each target emits its own slot range, in edge-index order.
  for (std::size_t t = 0; t < targets.size(); ++t) {
    std::set<std::uint32_t> slots;
    for (std::uint32_t i = begins[t]; i < begins[t + 1]; ++i) {
      slots.insert(items[i].slot);
      if (i > begins[t]) {
        EXPECT_LT(items[i - 1].edge_idx, items[i].edge_idx);
      }
    }
    std::set<std::uint32_t> expected;
    for (std::uint32_t i = begins[t]; i < begins[t + 1]; ++i) {
      expected.insert(i);
    }
    EXPECT_EQ(slots, expected) << "target " << t;
  }

  // Each target's items fall inside its index range and are distinct.
  const std::vector<std::pair<EdgeIdx, EdgeIdx>> ranges = {
      {0, 5}, {5, 5}, {5, 8}, {8, 18}};
  for (std::size_t t = 0; t < targets.size(); ++t) {
    std::set<EdgeIdx> seen;
    for (std::uint32_t s = begins[t]; s < begins[t + 1]; ++s) {
      EXPECT_GE(items[s].edge_idx, ranges[t].first);
      EXPECT_LT(items[s].edge_idx, ranges[t].second);
      seen.insert(items[s].edge_idx);
    }
    EXPECT_EQ(seen.size(), begins[t + 1] - begins[t]);
  }
}

// Emission order changes, the sample does not: slot s holds exactly the
// offset the s-th draw produced, as if items were emitted in draw order.
TEST(LayerSampleCursorTest, SlotsKeepDrawOrder) {
  MemoryBudget budget;
  std::vector<EdgeIdx> offsets = {0};
  for (int i = 1; i <= 50; ++i) offsets.push_back(offsets.back() + 3 * i);
  const OffsetIndex index = make_index(budget, offsets);
  std::vector<NodeId> targets(50);
  for (NodeId v = 0; v < 50; ++v) targets[v] = (v * 7) % 50;

  constexpr std::uint32_t kFanout = 10;
  std::vector<std::uint32_t> begins(targets.size() + 1);
  Xoshiro256 rng(31);
  LayerSampleCursor cursor(index, targets, kFanout, rng, begins.data());
  std::vector<SampleItem> items(4096);
  const std::size_t n = cursor.next(items);
  ASSERT_TRUE(cursor.exhausted());

  // Replay the draws the cursor makes, in the same RNG order.
  Xoshiro256 replay(31);
  std::vector<EdgeIdx> drawn;
  for (const NodeId v : targets) {
    const EdgeIdx degree = index.end(v) - index.begin(v);
    const std::uint64_t k = std::min<std::uint64_t>(kFanout, degree);
    if (k > 0) {
      sample_distinct_range(replay, index.begin(v), index.end(v), k, drawn);
    }
  }
  ASSERT_EQ(n, drawn.size());
  std::vector<bool> filled(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LT(items[i].slot, n);
    EXPECT_FALSE(filled[items[i].slot]) << "slot emitted twice";
    filled[items[i].slot] = true;
    EXPECT_EQ(items[i].edge_idx, drawn[items[i].slot]) << "slot "
                                                       << items[i].slot;
  }
}

TEST(LayerSampleCursorTest, ChunkedEmissionMatchesOneShot) {
  MemoryBudget budget;
  std::vector<EdgeIdx> offsets = {0};
  for (int i = 1; i <= 100; ++i) offsets.push_back(offsets.back() + 7);
  const OffsetIndex index = make_index(budget, offsets);
  std::vector<NodeId> targets(100);
  for (NodeId v = 0; v < 100; ++v) targets[v] = v;

  auto collect = [&](std::size_t chunk) {
    std::vector<std::uint32_t> begins(targets.size() + 1);
    Xoshiro256 rng(7);
    LayerSampleCursor cursor(index, targets, 5, rng, begins.data());
    std::vector<SampleItem> all;
    std::vector<SampleItem> buf(chunk);
    std::size_t n;
    while ((n = cursor.next(std::span<SampleItem>(buf.data(), chunk))) >
           0) {
      all.insert(all.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    return all;
  };

  const auto one_shot = collect(1024);
  ASSERT_EQ(one_shot.size(), 500u);
  for (const std::size_t chunk : {1UL, 3UL, 16UL, 499UL}) {
    const auto chunked = collect(chunk);
    ASSERT_EQ(chunked.size(), one_shot.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < one_shot.size(); ++i) {
      EXPECT_EQ(chunked[i].edge_idx, one_shot[i].edge_idx);
      EXPECT_EQ(chunked[i].slot, one_shot[i].slot);
    }
  }
}

TEST(LayerSampleCursorTest, AllZeroDegreeProducesNothing) {
  MemoryBudget budget;
  const OffsetIndex index = make_index(budget, {0, 0, 0, 0});
  const std::vector<NodeId> targets = {0, 1, 2};
  std::vector<std::uint32_t> begins(4);
  Xoshiro256 rng(1);
  LayerSampleCursor cursor(index, targets, 8, rng, begins.data());
  std::vector<SampleItem> items(16);
  EXPECT_EQ(cursor.next(items), 0u);
  EXPECT_TRUE(cursor.exhausted());
  for (const std::uint32_t b : begins) EXPECT_EQ(b, 0u);
}

TEST(LayerSampleCursorTest, FanoutEqualsDegreeTakesAll) {
  MemoryBudget budget;
  const OffsetIndex index = make_index(budget, {0, 6});
  const std::vector<NodeId> targets = {0};
  std::vector<std::uint32_t> begins(2);
  Xoshiro256 rng(1);
  LayerSampleCursor cursor(index, targets, 6, rng, begins.data());
  std::vector<SampleItem> items(8);
  ASSERT_EQ(cursor.next(items), 6u);
  std::set<EdgeIdx> seen;
  for (int i = 0; i < 6; ++i) seen.insert(items[i].edge_idx);
  EXPECT_EQ(seen, (std::set<EdgeIdx>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace rs::core
