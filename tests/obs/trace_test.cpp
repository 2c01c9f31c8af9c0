#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "testutil.h"

namespace rs::obs {
namespace {

using test::TempDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Serialize trace tests: the recorder is process-global state.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { (void)trace_stop(); }
  TempDir dir_;
};

TEST_F(TraceTest, DisabledByDefaultAndSpansAreNoOps) {
  ASSERT_FALSE(trace_enabled());
  { RS_OBS_SPAN("cat", "must_not_crash"); }
  trace_instant("cat", "also_fine");
}

TEST_F(TraceTest, StartStopWritesChromeJson) {
  const std::string path = dir_.file("trace.json");
  test::assert_ok(trace_start(path));
  EXPECT_TRUE(trace_enabled());
  {
    RS_OBS_SPAN("pipeline", "prepare");
    RS_OBS_SPAN("pipeline", "submit", "requests", 42);
  }
  trace_instant("epoch", "boundary");
  test::assert_ok(trace_stop());
  EXPECT_FALSE(trace_enabled());

  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"prepare\""), std::string::npos);
  EXPECT_NE(json.find("\"submit\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Structural validity (json.loads + required span names) is enforced
  // by scripts/check_obs_json.py, run over this same output in CI.
}

TEST_F(TraceTest, SecondStartFailsWhileActive) {
  test::assert_ok(trace_start(dir_.file("a.json")));
  EXPECT_FALSE(trace_start(dir_.file("b.json")).is_ok());
}

TEST_F(TraceTest, StopWithoutStartIsOk) {
  test::assert_ok(trace_stop());
}

TEST_F(TraceTest, EventsFromManyThreadsGetDistinctTids) {
  const std::string path = dir_.file("trace.json");
  test::assert_ok(trace_start(path));
  auto emit = [] { RS_OBS_SPAN("t", "work"); };
  std::thread a(emit), b(emit);
  a.join();
  b.join();
  emit();
  test::assert_ok(trace_stop());
  const std::string json = slurp(path);
  // Three recording threads -> at least three distinct "tid" values.
  int distinct = 0;
  for (int tid = 1; tid <= 8; ++tid) {
    if (json.find("\"tid\":" + std::to_string(tid)) != std::string::npos) {
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 3);
}

TEST_F(TraceTest, RingBoundsEventCount) {
  const std::string path = dir_.file("trace.json");
  // Tiny ring: 4 events per thread; 100 spans must not grow the file
  // beyond the ring (newest-wins) plus metadata.
  test::assert_ok(trace_start(path, /*events_per_thread=*/4));
  for (int i = 0; i < 100; ++i) {
    RS_OBS_SPAN("t", "work", "i", i);
  }
  test::assert_ok(trace_stop());
  const std::string json = slurp(path);
  std::size_t events = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_LE(events, 4u);
  EXPECT_GE(events, 1u);
  // The newest span (i=99) must have won over the oldest.
  EXPECT_NE(json.find("\"i\":99"), std::string::npos);
}

TEST_F(TraceTest, WrappedRingWritesOldestFirstAndDropsOrphanedHalves) {
  const std::string path = dir_.file("trace.json");
  test::assert_ok(trace_start(path, /*events_per_thread=*/8));
  trace_span_begin("t", "loop");
  trace_async_begin("t", "request", 100);
  for (int i = 0; i < 7; ++i) {
    RS_OBS_SPAN("t", "work", "i", i);
  }
  trace_async_begin("t", "request", 200);
  trace_async_end("t", "request", 200);
  trace_async_end("t", "request", 100);
  trace_span_end("t", "loop");
  test::assert_ok(trace_stop());

  // The ring kept the last 8 of 13 events: spans i=3..6, request 200's
  // pair, and the ends of request 100 and the loop, whose openers were
  // overwritten. Those two are left out; the rest is written in order.
  const std::string json = slurp(path);
  EXPECT_EQ(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_EQ(json.find("\"id\":\"0x64\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0xc8\""), std::string::npos);
  EXPECT_EQ(json.find("\"i\":2}"), std::string::npos);
  ASSERT_NE(json.find("\"i\":3}"), std::string::npos);
  EXPECT_LT(json.find("\"i\":3}"), json.find("\"i\":6}"));
  EXPECT_LT(json.find("\"i\":6}"), json.find("\"ph\":\"b\""));
}

TEST_F(TraceTest, RestartAfterStopRecordsFresh) {
  test::assert_ok(trace_start(dir_.file("first.json")));
  { RS_OBS_SPAN("t", "old_span"); }
  test::assert_ok(trace_stop());

  const std::string path = dir_.file("second.json");
  test::assert_ok(trace_start(path));
  { RS_OBS_SPAN("t", "new_span"); }
  test::assert_ok(trace_stop());
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"new_span\""), std::string::npos);
  EXPECT_EQ(json.find("\"old_span\""), std::string::npos);
}

}  // namespace
}  // namespace rs::obs
