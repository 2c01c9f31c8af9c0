// IoBackend conformance suite, parameterized over every real backend:
// the same batched random-read workload must yield identical bytes,
// respect capacity, and round-trip user_data.
#include "io/backend.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <numeric>

#include "io/mem_backend.h"
#include "io/uring_backend.h"
#include "testutil.h"
#include "uring/uring_syscalls.h"

namespace rs::io {
namespace {

using test::TempDir;

class BackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if ((GetParam() == BackendKind::kUring ||
         GetParam() == BackendKind::kUringPoll ||
         GetParam() == BackendKind::kUringSqpoll) &&
        !uring::kernel_supports_io_uring()) {
      GTEST_SKIP() << "io_uring unavailable";
    }
    path_ = dir_.file("data.bin");
    data_.resize(16384);
    std::iota(data_.begin(), data_.end(), 0u);
    FILE* f = fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(data_.data(), 4, data_.size(), f);
    fclose(f);
    fd_ = open(path_.c_str(), O_RDONLY);
    ASSERT_GE(fd_, 0);
  }
  void TearDown() override {
    if (fd_ >= 0) close(fd_);
  }

  std::unique_ptr<IoBackend> make(unsigned queue_depth = 32) {
    BackendConfig config;
    config.kind = GetParam();
    config.queue_depth = queue_depth;
    auto backend = make_backend(config, fd_);
    if (!backend.is_ok() && GetParam() == BackendKind::kUringSqpoll) {
      return nullptr;  // SQPOLL may be disallowed; caller skips
    }
    RS_CHECK_MSG(backend.is_ok(), backend.status().to_string());
    return std::move(backend).value();
  }

  TempDir dir_;
  std::string path_;
  std::vector<std::uint32_t> data_;
  int fd_ = -1;
};

TEST_P(BackendTest, BatchedRandomReadsCorrect) {
  auto backend = make();
  if (!backend) GTEST_SKIP() << "backend not available";

  constexpr std::size_t kReads = 300;
  std::vector<std::uint32_t> out(kReads, 0xdeadbeef);
  std::vector<ReadRequest> requests(kReads);
  for (std::size_t i = 0; i < kReads; ++i) {
    const std::uint64_t idx = (i * 97) % data_.size();
    requests[i] = {idx * 4, 4, &out[i], (static_cast<std::uint64_t>(i))};
  }

  std::size_t next = 0;
  std::size_t done = 0;
  std::array<Completion, 64> completions;
  while (done < kReads) {
    const unsigned room = backend->capacity() - backend->in_flight();
    const std::size_t n = std::min<std::size_t>(room, kReads - next);
    if (n > 0) {
      test::assert_ok(backend->submit(
          std::span<const ReadRequest>(requests.data() + next, n)));
      next += n;
    }
    auto reaped = backend->wait(completions);
    RS_ASSERT_OK(reaped);
    for (unsigned i = 0; i < reaped.value(); ++i) {
      ASSERT_EQ(completions[i].result, 4);
      const std::size_t slot = completions[i].user_data;
      EXPECT_EQ(out[slot], (slot * 97) % data_.size());
    }
    done += reaped.value();
  }
  EXPECT_EQ(backend->stats().requests, kReads);
  EXPECT_EQ(backend->stats().completions, kReads);
  EXPECT_EQ(backend->stats().bytes_completed, kReads * 4);
}

TEST_P(BackendTest, ReadBatchSyncConvenience) {
  auto backend = make(8);
  if (!backend) GTEST_SKIP() << "backend not available";
  std::vector<std::uint32_t> out(100);
  std::vector<ReadRequest> requests(100);
  for (std::size_t i = 0; i < 100; ++i) {
    requests[i] = {i * 8, 4, &out[i], i};
  }
  test::assert_ok(backend->read_batch_sync(requests));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i], 2 * i);
  }
}

TEST_P(BackendTest, OverCapacitySubmitRejected) {
  auto backend = make(4);
  if (!backend) GTEST_SKIP() << "backend not available";
  std::vector<std::uint32_t> out(64);
  std::vector<ReadRequest> requests(backend->capacity() + 1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i] = {0, 4, &out[i % out.size()], i};
  }
  const Status status = backend->submit(requests);
  EXPECT_FALSE(status.is_ok());
}

TEST_P(BackendTest, PollOnIdleReturnsZero) {
  auto backend = make();
  if (!backend) GTEST_SKIP() << "backend not available";
  std::array<Completion, 4> completions;
  auto n = backend->poll(completions);
  RS_ASSERT_OK(n);
  EXPECT_EQ(n.value(), 0u);
  auto w = backend->wait(completions);
  RS_ASSERT_OK(w);
  EXPECT_EQ(w.value(), 0u);  // nothing in flight: wait must not hang
}

TEST_P(BackendTest, NamesAreDistinctive) {
  auto backend = make();
  if (!backend) GTEST_SKIP() << "backend not available";
  EXPECT_FALSE(backend->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendTest,
    ::testing::Values(BackendKind::kUring, BackendKind::kUringPoll,
                      BackendKind::kUringSqpoll, BackendKind::kPsync,
                      BackendKind::kMmap),
    [](const auto& param_info) {
      std::string name = backend_kind_name(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// Registered-file mode: identical results with the fd in the ring's
// fixed-file table.
TEST(UringRegisteredFileTest, ReadsCorrectWithFixedFile) {
  if (!uring::kernel_supports_io_uring()) GTEST_SKIP();
  TempDir dir;
  const std::string path = dir.file("data.bin");
  std::vector<std::uint32_t> data(1024);
  std::iota(data.begin(), data.end(), 0u);
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(data.data(), 4, data.size(), f);
  fclose(f);
  const int fd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  BackendConfig config;
  config.kind = BackendKind::kUringPoll;
  config.queue_depth = 16;
  config.register_file = true;
  auto backend = make_backend(config, fd);
  RS_ASSERT_OK(backend);

  std::vector<std::uint32_t> out(64);
  std::vector<ReadRequest> requests(64);
  for (std::size_t i = 0; i < 64; ++i) {
    requests[i] = {(i * 13) * 4, 4, &out[i], i};
  }
  test::assert_ok(backend.value()->read_batch_sync(requests));
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out[i], i * 13);
  }
  close(fd);
}

// MemBackend-specific behaviors (the test double itself needs tests —
// pipeline correctness rests on it).
TEST(MemBackendTest, ServesFromBufferWithFaultsAndDelay) {
  std::vector<unsigned char> bytes(256);
  std::iota(bytes.begin(), bytes.end(), 0);
  MemBackend backend(bytes, 16);
  backend.inject_faults(3, EIO);

  std::array<unsigned char, 4> buf{};
  std::vector<ReadRequest> requests = {
      {0, 4, buf.data(), 1},   // ok
      {4, 4, buf.data(), 2},   // ok
      {8, 4, buf.data(), 3},   // fault (3rd)
  };
  test::assert_ok(backend.submit(requests));
  std::array<Completion, 8> completions;
  auto n = backend.wait(completions);
  RS_ASSERT_OK(n);
  ASSERT_EQ(n.value(), 3u);
  EXPECT_EQ(completions[0].result, 4);
  EXPECT_EQ(completions[1].result, 4);
  EXPECT_EQ(completions[2].result, -EIO);
  EXPECT_EQ(backend.stats().io_errors, 1u);
}

TEST(MemBackendTest, ReadPastEndShortens) {
  std::vector<unsigned char> bytes(10, 7);
  MemBackend backend(bytes, 4);
  unsigned char buf[8];
  ReadRequest req{6, 8, buf, 1};
  test::assert_ok(backend.submit({&req, 1}));
  std::array<Completion, 1> completions;
  auto n = backend.wait(completions);
  RS_ASSERT_OK(n);
  EXPECT_EQ(completions[0].result, 4);  // only 4 bytes available
  // Short reads count as io_errors, same as every other backend.
  EXPECT_EQ(backend.stats().io_errors, 1u);
}

// io_errors semantics: every backend must count failed reads *and*
// short reads identically, so cross-backend benches report comparable
// error rates. One test per backend, injecting the error each backend
// can actually produce.

// Drains `backend` until nothing is in flight, discarding completions.
void drain_all(IoBackend& backend) {
  std::array<Completion, 32> completions;
  while (backend.in_flight() > 0) {
    auto n = backend.wait(completions);
    RS_ASSERT_OK(n);
  }
}

TEST(IoErrorsTest, PsyncCountsFailedRead) {
  // A request whose buffer page is unmapped makes pread fail with
  // EFAULT; simpler and more portable: read from a closed fd.
  TempDir dir;
  const std::string path = dir.file("data.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char payload[16] = {0};
  fwrite(payload, 1, sizeof(payload), f);
  fclose(f);
  const int fd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  BackendConfig config;
  config.kind = BackendKind::kPsync;
  config.queue_depth = 4;
  auto backend = make_backend(config, fd);
  RS_ASSERT_OK(backend);
  close(fd);  // invalidate: the next pread returns -EBADF

  unsigned char buf[4];
  ReadRequest req{0, 4, buf, 1};
  test::assert_ok(backend.value()->submit({&req, 1}));
  std::array<Completion, 1> completions;
  auto n = backend.value()->wait(completions);
  RS_ASSERT_OK(n);
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(completions[0].result, -EBADF);
  EXPECT_EQ(backend.value()->stats().io_errors, 1u);
}

TEST(IoErrorsTest, PsyncCountsShortReadPastEof) {
  TempDir dir;
  const std::string path = dir.file("data.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char payload[10] = {0};
  fwrite(payload, 1, sizeof(payload), f);
  fclose(f);
  const int fd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  BackendConfig config;
  config.kind = BackendKind::kPsync;
  config.queue_depth = 4;
  auto backend = make_backend(config, fd);
  RS_ASSERT_OK(backend);

  unsigned char buf[8];
  ReadRequest req{6, 8, buf, 1};  // only 4 bytes before EOF
  test::assert_ok(backend.value()->submit({&req, 1}));
  std::array<Completion, 1> completions;
  auto n = backend.value()->wait(completions);
  RS_ASSERT_OK(n);
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(completions[0].result, 4);
  EXPECT_EQ(backend.value()->stats().io_errors, 1u);
  close(fd);
}

TEST(IoErrorsTest, UringCountsFailedRead) {
  if (!uring::kernel_supports_io_uring()) GTEST_SKIP();
  TempDir dir;
  const std::string path = dir.file("data.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char payload[16] = {0};
  fwrite(payload, 1, sizeof(payload), f);
  fclose(f);
  const int fd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  BackendConfig config;
  config.kind = BackendKind::kUringPoll;
  config.queue_depth = 4;
  auto backend = make_backend(config, fd);
  RS_ASSERT_OK(backend);
  close(fd);  // ring holds the raw fd number; reads now fail with -EBADF

  unsigned char buf[4];
  ReadRequest req{0, 4, buf, 1};
  test::assert_ok(backend.value()->submit({&req, 1}));
  std::array<Completion, 1> completions;
  auto n = backend.value()->wait(completions);
  RS_ASSERT_OK(n);
  ASSERT_EQ(n.value(), 1u);
  EXPECT_LT(completions[0].result, 0);
  EXPECT_EQ(backend.value()->stats().io_errors, 1u);
}

TEST(IoErrorsTest, UringCountsShortReadPastEof) {
  if (!uring::kernel_supports_io_uring()) GTEST_SKIP();
  TempDir dir;
  const std::string path = dir.file("data.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char payload[10] = {0};
  fwrite(payload, 1, sizeof(payload), f);
  fclose(f);
  const int fd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  BackendConfig config;
  config.kind = BackendKind::kUringPoll;
  config.queue_depth = 4;
  auto backend = make_backend(config, fd);
  RS_ASSERT_OK(backend);

  unsigned char buf[8];
  ReadRequest req{6, 8, buf, 1};  // only 4 bytes before EOF
  test::assert_ok(backend.value()->submit({&req, 1}));
  drain_all(*backend.value());
  EXPECT_EQ(backend.value()->stats().io_errors, 1u);
  close(fd);
}

TEST(IoErrorsTest, MmapCountsShortReadPastEof) {
  TempDir dir;
  const std::string path = dir.file("data.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char payload[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  fwrite(payload, 1, sizeof(payload), f);
  fclose(f);
  const int fd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  BackendConfig config;
  config.kind = BackendKind::kMmap;
  config.queue_depth = 4;
  auto backend = make_backend(config, fd);
  RS_ASSERT_OK(backend);

  unsigned char buf[8] = {0};
  std::vector<ReadRequest> requests = {
      {0, 4, buf, 1},    // fully satisfied
      {6, 8, buf, 2},    // 4 of 8 bytes -> short
      {100, 4, buf, 3},  // entirely past EOF -> 0 bytes, short
  };
  test::assert_ok(backend.value()->submit(requests));
  drain_all(*backend.value());
  EXPECT_EQ(backend.value()->stats().io_errors, 2u);
  close(fd);
}

// Regression: a failed submit() must return every freelist slot taken
// for the batch. The leak was invisible to in_flight() (which stayed 0),
// so the capacity check kept admitting batches until the freelist ran
// dry underneath it and submit crashed on an empty pop.
TEST(UringSubmitFailureTest, FailedSubmitsReturnFreelistSlots) {
  if (!uring::kernel_supports_io_uring()) GTEST_SKIP();
  TempDir dir;
  const std::string path = dir.file("data.bin");
  std::vector<std::uint32_t> data(1024);
  std::iota(data.begin(), data.end(), 0u);
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(data.data(), 4, data.size(), f);
  fclose(f);
  const int fd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  auto backend = UringBackend::create(
      fd, 8, UringBackend::WaitMode::kBusyPoll, /*sqpoll=*/false);
  RS_ASSERT_OK(backend);
  const unsigned cap = backend.value()->capacity();

  // Fail as many single-request submits as there are slots: with the
  // leak, each one consumed a slot forever.
  std::vector<std::uint32_t> out(cap, 0xdeadbeef);
  for (unsigned i = 0; i < cap; ++i) {
    backend.value()->inject_submit_failures_for_testing(1);
    ReadRequest req{0, 4, &out[0], 99};
    EXPECT_FALSE(backend.value()->submit({&req, 1}).is_ok());
    EXPECT_EQ(backend.value()->in_flight(), 0u);
  }

  // Every slot must be back: a full-capacity batch submits and reads
  // correctly.
  std::vector<ReadRequest> batch(cap);
  for (unsigned i = 0; i < cap; ++i) {
    batch[i] = {static_cast<std::uint64_t>(i) * 4, 4, &out[i], i};
  }
  test::assert_ok(backend.value()->submit(batch));
  drain_all(*backend.value());
  for (unsigned i = 0; i < cap; ++i) {
    EXPECT_EQ(out[i], i) << "read " << i;
  }
  // Withdrawn batches never reached the kernel: only the final batch
  // counts as submitted requests.
  EXPECT_EQ(backend.value()->stats().requests, cap);
  EXPECT_EQ(backend.value()->stats().completions, cap);
  close(fd);
}

// Regression: the SQPOLL thread posts a batch's completions before it
// advances the SQ head, so a full-capacity batch submitted right after
// the previous one was reaped used to find the SQ still full and abort.
// The ring now waits for SQ space instead.
TEST(UringSqpollTest, FullCapacityBatchesBackToBack) {
  if (!uring::kernel_supports_io_uring()) GTEST_SKIP();
  TempDir dir;
  const std::string path = dir.file("data.bin");
  std::vector<std::uint32_t> data(4096);
  std::iota(data.begin(), data.end(), 0u);
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(data.data(), 4, data.size(), f);
  fclose(f);
  const int fd = open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  BackendConfig config;
  config.kind = BackendKind::kUringSqpoll;
  config.queue_depth = 8;
  auto backend = make_backend(config, fd);
  if (!backend.is_ok()) {
    close(fd);
    GTEST_SKIP() << "SQPOLL not permitted: " << backend.status().to_string();
  }
  IoBackend& io = *backend.value();
  const unsigned cap = io.capacity();
  std::vector<std::uint32_t> out(cap);
  std::vector<ReadRequest> batch(cap);
  for (unsigned round = 0; round < 3000; ++round) {
    for (unsigned i = 0; i < cap; ++i) {
      const std::uint64_t idx = (round * 31 + i * 7) % data.size();
      batch[i] = {idx * 4, 4, &out[i], idx};
    }
    ASSERT_TRUE(io.submit(batch).is_ok()) << "round " << round;
    drain_all(io);
    for (unsigned i = 0; i < cap; ++i) {
      ASSERT_EQ(out[i], batch[i].user_data) << "round " << round;
    }
  }
  close(fd);
}

TEST(IoErrorsTest, MemCountsFaultsAndShortReads) {
  std::vector<unsigned char> bytes(8, 9);
  MemBackend backend(bytes, 8);
  backend.inject_faults(2, EIO);  // every 2nd request fails

  unsigned char buf[16];
  std::vector<ReadRequest> requests = {
      {0, 4, buf, 1},   // ok
      {0, 4, buf, 2},   // injected fault
      {4, 16, buf, 3},  // short: 4 of 16 bytes
  };
  test::assert_ok(backend.submit(requests));
  drain_all(backend);
  EXPECT_EQ(backend.stats().io_errors, 2u);  // one fault + one short
}

}  // namespace
}  // namespace rs::io
