// ReadPipeline unit tests against the in-memory fault-injecting backend
// (sync and async, in-order and out-of-order plans, cache interaction,
// error propagation), plus the sample-proportional I/O bound over every
// real backend, buffered and O_DIRECT.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "io/file.h"
#include "io/mem_backend.h"
#include "testutil.h"
#include "uring/uring_syscalls.h"

namespace rs::core {
namespace {

// An ItemSource over a fixed list of items.
class VectorSource final : public ItemSource {
 public:
  explicit VectorSource(std::vector<SampleItem> items)
      : items_(std::move(items)) {}
  std::size_t next(std::span<SampleItem> out) override {
    std::size_t n = 0;
    while (n < out.size() && pos_ < items_.size()) {
      out[n++] = items_[pos_++];
    }
    return n;
  }

 private:
  std::vector<SampleItem> items_;
  std::size_t pos_ = 0;
};

// Edge file contents: entry i == i * 3 + 1.
std::vector<unsigned char> make_edge_bytes(std::size_t entries) {
  std::vector<NodeId> values(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    values[i] = static_cast<NodeId>(i * 3 + 1);
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  return {bytes, bytes + entries * sizeof(NodeId)};
}

std::vector<SampleItem> make_items(std::size_t count, std::size_t entries,
                                   std::uint64_t stride = 17) {
  std::vector<SampleItem> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    items.push_back({(i * stride) % entries,
                     static_cast<std::uint32_t>(i)});
  }
  return items;
}

// Items three 512-byte blocks apart never share a block or an extent, so
// each becomes its own request — what fault-period tests count on.
constexpr std::uint64_t kSpreadStride = 3 * 128;
constexpr std::size_t kSpreadEntries = 200 * kSpreadStride;

void verify_values(const std::vector<SampleItem>& items,
                   const std::vector<NodeId>& values) {
  for (const SampleItem& item : items) {
    EXPECT_EQ(values[item.slot],
              static_cast<NodeId>(item.edge_idx * 3 + 1))
        << "slot " << item.slot;
  }
}

struct PipelineParam {
  std::string name;
  bool async;
  std::uint32_t group_size;
};

class PipelineModeTest : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineModeTest, FetchesEveryItemCorrectly) {
  constexpr std::size_t kEntries = 4096;
  const PipelineParam& param = GetParam();

  io::MemBackend backend(make_edge_bytes(kEntries), param.group_size);
  MemoryBudget budget;
  PipelineOptions options;
  options.async = param.async;
  options.block_bytes = 512;
  options.group_size = param.group_size;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);

  const auto items = make_items(1000, kEntries);
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  test::assert_ok(pipeline.value()->run(source, values.data()));
  verify_values(items, values);

  const PipelineStats& stats = pipeline.value()->stats();
  EXPECT_EQ(stats.items, items.size());
  // Coalescing cannot exceed one request per item; with groups larger
  // than one, stride-17 items at 128 entries/block coalesce strictly.
  if (param.group_size > 1) {
    EXPECT_LT(stats.read_ops, items.size());
  } else {
    EXPECT_EQ(stats.read_ops, items.size());
  }
  EXPECT_GT(stats.read_ops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PipelineModeTest,
    ::testing::Values(PipelineParam{"sync", false, 64},
                      PipelineParam{"async", true, 64},
                      PipelineParam{"tiny_groups", true, 4},
                      PipelineParam{"group_of_one", true, 1}),
    [](const auto& param_info) { return param_info.param.name; });

// Items in block order coalesce in one linear pass; a group that arrives
// out of order is sorted first and must plan exactly the same requests.
TEST(PipelineTest, OutOfOrderGroupsMatchSortedPlan) {
  constexpr std::size_t kEntries = 8192;
  constexpr std::uint32_t kGroup = 64;
  io::MemBackend backend(make_edge_bytes(kEntries), kGroup);
  MemoryBudget budget;

  // Sorted plan: every 5th entry, so blocks hold ~25 items and runs of
  // adjacent blocks form extents.
  std::vector<SampleItem> sorted;
  for (std::size_t e = 0; e < kEntries; e += 5) {
    sorted.push_back({e, static_cast<std::uint32_t>(sorted.size())});
  }
  // Same items in the same groups, each group shuffled.
  std::vector<SampleItem> shuffled = sorted;
  Xoshiro256 rng(99);
  for (std::size_t g = 0; g < shuffled.size(); g += kGroup) {
    const std::size_t end = std::min(shuffled.size(), g + kGroup);
    for (std::size_t i = end - 1; i > g; --i) {
      std::swap(shuffled[i], shuffled[g + rng.uniform(i - g + 1)]);
    }
  }
  ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end(),
                              [](const SampleItem& a, const SampleItem& b) {
                                return a.edge_idx < b.edge_idx;
                              }));

  auto run_with = [&](const std::vector<SampleItem>& items) {
    PipelineOptions options;
    options.group_size = kGroup;
    auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
    RS_CHECK_MSG(pipeline.is_ok(), pipeline.status().to_string());
    std::vector<NodeId> values(items.size(), 0);
    VectorSource source(items);
    const Status status = pipeline.value()->run(source, values.data());
    RS_CHECK_MSG(status.is_ok(), status.to_string());
    verify_values(items, values);
    return std::make_pair(values, pipeline.value()->stats().read_ops);
  };

  const auto [sorted_values, sorted_ops] = run_with(sorted);
  const auto [shuffled_values, shuffled_ops] = run_with(shuffled);
  EXPECT_EQ(shuffled_values, sorted_values);
  EXPECT_EQ(shuffled_ops, sorted_ops);
  EXPECT_LT(sorted_ops, sorted.size());
}

TEST(PipelineTest, DelayedCompletionsStillAllArrive) {
  constexpr std::size_t kEntries = 1024;
  io::MemBackend backend(make_edge_bytes(kEntries), 32);
  backend.set_completion_delay(3);
  MemoryBudget budget;
  PipelineOptions options;
  options.group_size = 32;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);

  const auto items = make_items(200, kEntries);
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  test::assert_ok(pipeline.value()->run(source, values.data()));
  verify_values(items, values);
}

TEST(PipelineTest, PermanentIoErrorSurfacesAsStatus) {
  // EBADF is a permanent errno: no retry, the error surfaces directly.
  constexpr std::size_t kEntries = kSpreadEntries;
  io::MemBackend backend(make_edge_bytes(kEntries), 32);
  backend.inject_faults(/*period=*/50, EBADF);
  MemoryBudget budget;
  PipelineOptions options;
  options.group_size = 32;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);

  const auto items = make_items(200, kEntries, kSpreadStride);
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  const Status status = pipeline.value()->run(source, values.data());
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
  EXPECT_EQ(pipeline.value()->stats().retries, 0u);
  // After a failed run every in-flight read has been quiesced.
  EXPECT_EQ(backend.in_flight(), 0u);
}

TEST(PipelineTest, RetryableIoErrorIsRetriedToSuccess) {
  // EIO is retryable: every 50th request fails once, the pipeline
  // resubmits it (a fresh request, off the fault period), and the run
  // succeeds with bit-identical values.
  constexpr std::size_t kEntries = kSpreadEntries;
  io::MemBackend backend(make_edge_bytes(kEntries), 32);
  backend.inject_faults(/*period=*/50, EIO);
  MemoryBudget budget;
  PipelineOptions options;
  options.group_size = 32;
  options.retry_backoff_initial_us = 0;  // keep the test fast
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);

  const auto items = make_items(200, kEntries, kSpreadStride);
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  test::assert_ok(pipeline.value()->run(source, values.data()));
  verify_values(items, values);
  EXPECT_GT(pipeline.value()->stats().retries, 0u);
}

TEST(PipelineTest, RetryExhaustionReportsAttemptCount) {
  // Every request fails with EIO: the retry budget runs out and the
  // deferred error names the attempt count.
  constexpr std::size_t kEntries = 256;
  io::MemBackend backend(make_edge_bytes(kEntries), 8);
  backend.inject_faults(/*period=*/1, EIO);
  MemoryBudget budget;
  PipelineOptions options;
  options.group_size = 8;
  options.max_io_attempts = 3;
  options.retry_backoff_initial_us = 0;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);

  const auto items = make_items(16, kEntries);
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  const Status status = pipeline.value()->run(source, values.data());
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
  EXPECT_NE(status.message().find("3 attempts"), std::string::npos)
      << status.to_string();
  EXPECT_EQ(backend.in_flight(), 0u);
}

TEST(PipelineTest, StallDetectorTimesOutOnLostCompletions) {
  // A swallowed completion never arrives; instead of hanging forever the
  // pipeline errors out with TIMED_OUT once the wait deadline passes.
  constexpr std::size_t kEntries = kSpreadEntries;
  io::MemBackend backend(make_edge_bytes(kEntries), 32);
  backend.lose_completions(/*period=*/40);
  MemoryBudget budget;
  PipelineOptions options;
  options.group_size = 32;
  options.wait_deadline_ms = 50;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);

  const auto items = make_items(200, kEntries, kSpreadStride);
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  const Status status = pipeline.value()->run(source, values.data());
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kTimedOut);
  EXPECT_GE(pipeline.value()->stats().stalls, 1u);
  EXPECT_GT(backend.lost_count(), 0u);
}

TEST(PipelineTest, BlockCacheAbsorbsRepeatedBlocks) {
  constexpr std::size_t kEntries = 1024;
  io::MemBackend backend(make_edge_bytes(kEntries), 64);
  MemoryBudget budget;
  auto cache = BlockCache::create(budget, 1 << 20, 512);
  RS_ASSERT_OK(cache);
  ASSERT_TRUE(cache.value().enabled());

  PipelineOptions options;
  options.block_bytes = 512;
  options.group_size = 64;
  auto pipeline =
      ReadPipeline::create(backend, &cache.value(), options, budget);
  RS_ASSERT_OK(pipeline);

  const auto items = make_items(500, kEntries);
  std::vector<NodeId> values(items.size(), 0);

  VectorSource first(items);
  test::assert_ok(pipeline.value()->run(first, values.data()));
  verify_values(items, values);
  const std::uint64_t ops_first = pipeline.value()->stats().read_ops;

  // Second pass over the same items: everything should come from cache.
  std::fill(values.begin(), values.end(), 0);
  VectorSource second(items);
  test::assert_ok(pipeline.value()->run(second, values.data()));
  verify_values(items, values);
  EXPECT_EQ(pipeline.value()->stats().read_ops, ops_first);
  EXPECT_GE(pipeline.value()->stats().cache_hits, items.size());
}

TEST(PipelineTest, AdjacentBlocksMergeIntoExtents) {
  constexpr std::size_t kEntries = 4096;
  // Queue deep enough that all items land in ONE group, so the group
  // spans all 8 blocks and merging has something to merge.
  io::MemBackend backend(make_edge_bytes(kEntries), 512);
  MemoryBudget budget;

  // Contiguous items spanning 8 blocks (entries 0..1023 at 128/block).
  std::vector<SampleItem> items;
  for (std::size_t i = 0; i < 1024; i += 2) {
    items.push_back({i, static_cast<std::uint32_t>(items.size())});
  }

  auto run_with = [&](std::uint32_t max_extent) {
    PipelineOptions options;
      options.block_bytes = 512;
    options.group_size = 512;
    options.max_extent_blocks = max_extent;
    auto pipeline =
        ReadPipeline::create(backend, nullptr, options, budget);
    RS_CHECK_MSG(pipeline.is_ok(), pipeline.status().to_string());
    std::vector<NodeId> values(items.size(), 0);
    VectorSource source(items);
    const Status status = pipeline.value()->run(source, values.data());
    RS_CHECK_MSG(status.is_ok(), status.to_string());
    verify_values(items, values);
    return pipeline.value()->stats().read_ops;
  };

  const std::uint64_t unmerged = run_with(1);
  const std::uint64_t merged = run_with(8);
  EXPECT_EQ(unmerged, 8u);  // one request per distinct block
  EXPECT_EQ(merged, 1u);    // all 8 adjacent blocks in one extent
}

TEST(PipelineTest, ExtentCapRespected) {
  constexpr std::size_t kEntries = 4096;
  io::MemBackend backend(make_edge_bytes(kEntries), 64);
  MemoryBudget budget;
  std::vector<SampleItem> items;
  for (std::size_t i = 0; i < 2048; i += 64) {  // 16 adjacent blocks
    items.push_back({i, static_cast<std::uint32_t>(items.size())});
  }
  PipelineOptions options;
  options.block_bytes = 512;
  options.group_size = 64;
  options.max_extent_blocks = 4;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  test::assert_ok(pipeline.value()->run(source, values.data()));
  verify_values(items, values);
  EXPECT_EQ(pipeline.value()->stats().read_ops, 4u);  // 16 blocks / 4
}

TEST(PipelineTest, ExtentsFillCacheBlockwise) {
  constexpr std::size_t kEntries = 4096;
  io::MemBackend backend(make_edge_bytes(kEntries), 64);
  MemoryBudget budget;
  auto cache = BlockCache::create(budget, 1 << 20, 512);
  RS_ASSERT_OK(cache);
  PipelineOptions options;
  options.block_bytes = 512;
  options.group_size = 64;
  options.max_extent_blocks = 8;
  auto pipeline =
      ReadPipeline::create(backend, &cache.value(), options, budget);
  RS_ASSERT_OK(pipeline);

  // One extent covering blocks 0..7.
  std::vector<SampleItem> items;
  for (std::size_t i = 0; i < 1024; i += 128) {
    items.push_back({i, static_cast<std::uint32_t>(items.size())});
  }
  std::vector<NodeId> values(items.size(), 0);
  VectorSource first(items);
  test::assert_ok(pipeline.value()->run(first, values.data()));
  // Every covered block must now be cached individually.
  for (std::uint64_t block = 0; block < 8; ++block) {
    std::uint32_t out = 0;
    EXPECT_TRUE(cache.value().lookup(block, 0, 4, &out))
        << "block " << block;
    EXPECT_EQ(out, static_cast<NodeId>(block * 128 * 3 + 1));
  }
}

// Forwards every request untouched but reports the first qualifying
// completion as a *misaligned* short read (the inner backend really
// delivered everything, so the lie only exercises the resume path), and
// records every submitted (offset, len) so tests can assert the retry
// tail stayed block-aligned. FaultInjectBackend's short mode cannot do
// this: it truncates the inner request itself, so the resume offset it
// produces is still whatever the decorator chose.
class LyingShortBackend final : public io::IoBackend {
 public:
  LyingShortBackend(io::IoBackend& inner, std::uint32_t block_bytes,
                    unsigned lies)
      : inner_(inner), block_bytes_(block_bytes), lies_remaining_(lies) {}

  unsigned capacity() const override { return inner_.capacity(); }
  unsigned in_flight() const override { return inner_.in_flight(); }

  Status submit(std::span<const io::ReadRequest> requests) override {
    for (const io::ReadRequest& req : requests) {
      submitted_.push_back({req.offset, req.len});
      lengths_[req.user_data] = req.len;
    }
    return inner_.submit(requests);
  }
  Result<unsigned> poll(std::span<io::Completion> out) override {
    auto n = inner_.poll(out);
    if (n.is_ok()) lie(out, n.value());
    return n;
  }
  Result<unsigned> wait(std::span<io::Completion> out) override {
    auto n = inner_.wait(out);
    if (n.is_ok()) lie(out, n.value());
    return n;
  }
  const io::IoStats& stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }
  std::string name() const override { return "lying-short"; }

  struct Submitted {
    std::uint64_t offset;
    std::uint32_t len;
  };
  const std::vector<Submitted>& submitted() const { return submitted_; }
  unsigned lies_told() const { return lies_told_; }

 private:
  void lie(std::span<io::Completion> out, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      const std::uint32_t len = lengths_[out[i].user_data];
      // Only shorten multi-block reads: a one-block read would shrink
      // below a block and retry against the lie forever.
      if (lies_remaining_ > 0 && out[i].result > 0 &&
          static_cast<std::uint32_t>(out[i].result) == len &&
          len > block_bytes_) {
        out[i].result = static_cast<std::int32_t>(block_bytes_ + 4);
        --lies_remaining_;
        ++lies_told_;
      }
    }
  }

  io::IoBackend& inner_;
  std::uint32_t block_bytes_;
  unsigned lies_remaining_;
  unsigned lies_told_ = 0;
  std::vector<Submitted> submitted_;
  std::map<std::uint64_t, std::uint32_t> lengths_;
};

// Regression: resuming a shortened read must restart from the
// containing block boundary, not from offset + done — a misaligned resume
// offset EINVALs under O_DIRECT and desyncs the block scatter.
TEST(PipelineTest, ShortReadResumeStaysBlockAligned) {
  constexpr std::size_t kEntries = 4096;  // 16 KiB, multiple of 512
  io::MemBackend inner(make_edge_bytes(kEntries), 512);
  LyingShortBackend backend(inner, 512, /*lies=*/1);
  MemoryBudget budget;
  PipelineOptions options;
  options.block_bytes = 512;
  options.group_size = 512;
  options.max_extent_blocks = 8;
  options.retry_backoff_initial_us = 0;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);

  // Contiguous items spanning blocks 0..7 so one 8-block extent forms;
  // the lie shortens its completion to 516 of 4096 bytes.
  std::vector<SampleItem> items;
  for (std::size_t i = 0; i < 1024; i += 2) {
    items.push_back({i, static_cast<std::uint32_t>(items.size())});
  }
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  test::assert_ok(pipeline.value()->run(source, values.data()));
  verify_values(items, values);

  ASSERT_EQ(backend.lies_told(), 1u);
  EXPECT_GT(pipeline.value()->stats().retries, 0u);
  for (const auto& req : backend.submitted()) {
    EXPECT_EQ(req.offset % 512, 0u)
        << "resume offset " << req.offset << " not block-aligned";
    EXPECT_EQ(req.len % 512, 0u)
        << "resume length " << req.len << " not block-aligned";
  }
}

// Regression: an extent shortened at EOF covers a partial tail block;
// the cache fill loop must skip it — inserting it would mark a block
// complete whose trailing bytes were never read.
TEST(PipelineTest, EofTailBlockIsNotCached) {
  constexpr std::size_t kEntries = 1000;  // 4000 bytes: 7 full blocks + 416
  io::MemBackend backend(make_edge_bytes(kEntries), 64);
  MemoryBudget budget;
  auto cache = BlockCache::create(budget, 1 << 20, 512);
  RS_ASSERT_OK(cache);
  ASSERT_TRUE(cache.value().enabled());

  PipelineOptions options;
  options.block_bytes = 512;
  options.group_size = 64;
  options.retry_backoff_initial_us = 0;
  auto pipeline =
      ReadPipeline::create(backend, &cache.value(), options, budget);
  RS_ASSERT_OK(pipeline);

  // Stride-17 items cover every block including the EOF tail (block 7
  // holds entries 896..999, i.e. 416 of 512 bytes).
  const auto items = make_items(200, kEntries);
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  test::assert_ok(pipeline.value()->run(source, values.data()));
  verify_values(items, values);

  std::uint32_t out = 0;
  EXPECT_TRUE(cache.value().lookup(0, 0, 4, &out));
  EXPECT_EQ(out, 1u);  // entry 0 == 0 * 3 + 1
  EXPECT_FALSE(cache.value().lookup(7, 0, 4, &out))
      << "partial EOF tail block was inserted into the cache";
}

// Paper §3.1's bound, made explicit: every read covers whole blocks that
// hold a sampled entry, so a layer costs at most one request and one
// block of bytes per sampled entry, on every backend, sync and async,
// buffered and O_DIRECT.
struct BoundParam {
  std::string name;
  io::BackendKind backend;  // ignored when mem is set
  bool mem;
  bool async;
  bool direct;
};

class SampleProportionalTest : public ::testing::TestWithParam<BoundParam> {};

TEST_P(SampleProportionalTest, ReadsAreBlockAlignedAndBounded) {
  const BoundParam& param = GetParam();
  if (!param.mem && param.backend == io::BackendKind::kUring &&
      !uring::kernel_supports_io_uring()) {
    GTEST_SKIP() << "io_uring unavailable";
  }
  constexpr std::size_t kEntries = 16384;  // 64 KiB, block-multiple
  constexpr std::uint32_t kBlock = 512;
  constexpr std::uint32_t kGroup = 64;
  const std::vector<unsigned char> bytes = make_edge_bytes(kEntries);

  test::TempDir dir;
  io::File file;
  std::unique_ptr<io::IoBackend> inner;
  if (param.mem) {
    inner = std::make_unique<io::MemBackend>(bytes, kGroup);
  } else {
    const std::string path = dir.file("edges.bin");
    {
      auto out = io::File::open(path, io::OpenMode::kWriteTrunc);
      RS_ASSERT_OK(out);
      test::assert_ok(out.value().pwrite_exact(bytes.data(), bytes.size(), 0));
    }
    auto opened = io::File::open(
        path, param.direct ? io::OpenMode::kReadDirect : io::OpenMode::kRead);
    RS_ASSERT_OK(opened);
    file = std::move(opened).value();
    io::BackendConfig config;
    config.kind = param.backend;
    config.queue_depth = kGroup;
    auto made = io::make_backend(config, file.fd());
    RS_ASSERT_OK(made);
    inner = std::move(made).value();
  }
  LyingShortBackend backend(*inner, kBlock, /*lies=*/0);  // records only

  MemoryBudget budget;
  PipelineOptions options;
  options.async = param.async;
  options.block_bytes = kBlock;
  options.group_size = kGroup;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);

  // Random entries (duplicates allowed), several groups' worth.
  std::vector<SampleItem> items;
  Xoshiro256 rng(2024);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    items.push_back({rng.uniform(kEntries), i});
  }
  std::vector<NodeId> values(items.size(), 0);
  VectorSource source(items);
  test::assert_ok(pipeline.value()->run(source, values.data()));
  verify_values(items, values);

  const PipelineStats& stats = pipeline.value()->stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_LE(stats.read_ops, items.size());
  EXPECT_LE(stats.bytes_read, std::uint64_t{kBlock} * items.size());
  ASSERT_EQ(backend.submitted().size(), stats.read_ops);
  for (const auto& req : backend.submitted()) {
    EXPECT_EQ(req.offset % kBlock, 0u) << "offset " << req.offset;
    EXPECT_EQ(req.len % kBlock, 0u) << "len " << req.len;
  }
}

std::vector<BoundParam> bound_params() {
  const std::pair<const char*, io::BackendKind> kinds[] = {
      {"psync", io::BackendKind::kPsync},
      {"uring", io::BackendKind::kUring},
      {"mmap", io::BackendKind::kMmap}};
  std::vector<BoundParam> params;
  for (const bool async : {false, true}) {
    const std::string shape = async ? "_async" : "_sync";
    for (const auto& [name, kind] : kinds) {
      for (const bool direct : {false, true}) {
        params.push_back({name + shape + (direct ? "_direct" : "_buffered"),
                          kind, false, async, direct});
      }
    }
    params.push_back({"mem" + shape, io::BackendKind::kPsync, true, async,
                      false});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SampleProportionalTest, ::testing::ValuesIn(bound_params()),
    [](const auto& param_info) { return param_info.param.name; });

TEST(PipelineTest, GroupSizeBeyondBackendCapacityRejected) {
  io::MemBackend backend(make_edge_bytes(64), 8);
  MemoryBudget budget;
  PipelineOptions options;
  options.group_size = 16;  // backend holds only 8
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  EXPECT_FALSE(pipeline.is_ok());
}

TEST(PipelineTest, EmptySourceIsANoop) {
  io::MemBackend backend(make_edge_bytes(64), 8);
  MemoryBudget budget;
  PipelineOptions options;
  options.group_size = 8;
  auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
  RS_ASSERT_OK(pipeline);
  VectorSource source({});
  NodeId dummy = 0;
  test::assert_ok(pipeline.value()->run(source, &dummy));
  EXPECT_EQ(pipeline.value()->stats().items, 0u);
}

TEST(PipelineTest, ScratchChargedAndReleased) {
  io::MemBackend backend(make_edge_bytes(64), 8);
  MemoryBudget budget(10 << 20);
  PipelineOptions options;
  options.group_size = 8;
  {
    auto pipeline = ReadPipeline::create(backend, nullptr, options, budget);
    RS_ASSERT_OK(pipeline);
    EXPECT_GT(budget.used(), 0u);
  }
  EXPECT_EQ(budget.used(), 0u);
}

}  // namespace
}  // namespace rs::core
