// Router subsystem tests: shard-map parsing, consistent-hash ring
// properties, replica health state machine, and the loopback
// integration contract — a multi-shard scatter/gather response must be
// bit-identical to a single-process sample_for_serving over the
// unsharded graph, and must stay that way through socket faults and a
// shard replica dying mid-run (failover).
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ring_sampler.h"
#include "io/fault_inject.h"
#include "net/channel.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "router/frontend.h"
#include "router/hash_ring.h"
#include "router/health.h"
#include "router/shard_map.h"
#include "testutil.h"

namespace rs::router {
namespace {

using test::TempDir;
using test::make_test_csr;
using test::write_test_graph;

// ---- ShardMap ----

TEST(ShardMapTest, ParsesCanonicalFormAndRoundTrips) {
  const std::string text =
      "# rs-shard-map v1\n"
      "vnodes 32\n"
      "# primaries first, failover peers after\n"
      "shard 10.0.0.1:7950 10.0.1.1:7950\n"
      "shard 10.0.0.2:7950\n";
  auto map = ShardMap::parse(text);
  RS_ASSERT_OK(map);
  EXPECT_EQ(map.value().vnodes, 32u);
  ASSERT_EQ(map.value().num_shards(), 2u);
  EXPECT_EQ(map.value().max_replicas(), 2u);
  EXPECT_EQ(map.value().shards[0][1].host, "10.0.1.1");
  EXPECT_EQ(map.value().shards[1][0].port, 7950);

  auto again = ShardMap::parse(map.value().to_string());
  RS_ASSERT_OK(again);
  EXPECT_EQ(again.value().vnodes, map.value().vnodes);
  EXPECT_EQ(again.value().shards, map.value().shards);
}

TEST(ShardMapTest, DefaultsVnodesWhenOmitted) {
  auto map = ShardMap::parse("# rs-shard-map v1\nshard a:1\n");
  RS_ASSERT_OK(map);
  EXPECT_EQ(map.value().vnodes, kDefaultVnodes);
}

TEST(ShardMapTest, RejectsMalformedInputs) {
  // First non-blank line must be the exact magic.
  EXPECT_FALSE(ShardMap::parse("shard a:1\n").is_ok());
  EXPECT_FALSE(ShardMap::parse("# rs-shard-map v2\nshard a:1\n").is_ok());
  EXPECT_FALSE(ShardMap::parse("").is_ok());
  // No shards.
  EXPECT_FALSE(ShardMap::parse("# rs-shard-map v1\nvnodes 8\n").is_ok());
  // Endpoint shape.
  EXPECT_FALSE(ShardMap::parse("# rs-shard-map v1\nshard a\n").is_ok());
  EXPECT_FALSE(ShardMap::parse("# rs-shard-map v1\nshard a:\n").is_ok());
  EXPECT_FALSE(ShardMap::parse("# rs-shard-map v1\nshard :1\n").is_ok());
  EXPECT_FALSE(ShardMap::parse("# rs-shard-map v1\nshard a:0\n").is_ok());
  EXPECT_FALSE(
      ShardMap::parse("# rs-shard-map v1\nshard a:65536\n").is_ok());
  EXPECT_FALSE(
      ShardMap::parse("# rs-shard-map v1\nshard a:12x\n").is_ok());
  // Duplicate replica within a shard.
  EXPECT_FALSE(
      ShardMap::parse("# rs-shard-map v1\nshard a:1 a:1\n").is_ok());
  // vnodes: duplicate, range, arity.
  EXPECT_FALSE(ShardMap::parse(
                   "# rs-shard-map v1\nvnodes 8\nvnodes 8\nshard a:1\n")
                   .is_ok());
  EXPECT_FALSE(
      ShardMap::parse("# rs-shard-map v1\nvnodes 0\nshard a:1\n").is_ok());
  EXPECT_FALSE(ShardMap::parse("# rs-shard-map v1\nvnodes 999999\n"
                               "shard a:1\n")
                   .is_ok());
  EXPECT_FALSE(
      ShardMap::parse("# rs-shard-map v1\nvnodes 8 9\nshard a:1\n")
          .is_ok());
  // Unknown directive.
  EXPECT_FALSE(
      ShardMap::parse("# rs-shard-map v1\nreplica a:1\n").is_ok());
  // Too many replicas on one line.
  EXPECT_FALSE(ShardMap::parse("# rs-shard-map v1\n"
                               "shard a:1 b:1 c:1 d:1 e:1\n")
                   .is_ok());

  // Every truncation and every single-bit flip of the canonical text
  // either fails or parses to a map that round-trips through to_string
  // (the sweep doubles as a fuzz corpus under ASan+UBSan).
  auto canonical = ShardMap::parse(
      "# rs-shard-map v1\nvnodes 32\n"
      "shard 10.0.0.1:7950 10.0.1.1:7951\nshard 10.0.0.2:7952\n");
  RS_ASSERT_OK(canonical);
  const std::string text = canonical.value().to_string();
  auto expect_rejected_or_round_trips = [](const std::string& input) {
    auto map = ShardMap::parse(input);
    if (!map.is_ok()) return;
    auto again = ShardMap::parse(map.value().to_string());
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    EXPECT_EQ(again.value().vnodes, map.value().vnodes);
    EXPECT_EQ(again.value().shards, map.value().shards);
  };
  for (std::size_t len = 0; len <= text.size(); ++len) {
    SCOPED_TRACE("prefix " + std::to_string(len));
    expect_rejected_or_round_trips(text.substr(0, len));
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(i) + " bit " +
                   std::to_string(bit));
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      expect_rejected_or_round_trips(flipped);
    }
  }
}

TEST(ShardMapTest, LoadsFromFile) {
  TempDir dir;
  const std::string path = dir.file("shards.map");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# rs-shard-map v1\nshard 127.0.0.1:7950\n", f);
    std::fclose(f);
  }
  auto map = ShardMap::load(path);
  RS_ASSERT_OK(map);
  EXPECT_EQ(map.value().num_shards(), 1u);
  EXPECT_FALSE(ShardMap::load(dir.file("missing.map")).is_ok());
}

// ---- HashRing ----

TEST(HashRingTest, DeterministicAcrossInstances) {
  HashRing a(4, 64);
  HashRing b(4, 64);
  for (NodeId v = 0; v < 5000; ++v) {
    ASSERT_EQ(a.shard_of(v), b.shard_of(v)) << "node " << v;
  }
}

TEST(HashRingTest, SpreadsLoadAcrossShards) {
  constexpr std::size_t kShards = 4;
  constexpr NodeId kNodes = 20000;
  HashRing ring(kShards, kDefaultVnodes);
  std::vector<std::size_t> owned(kShards, 0);
  for (NodeId v = 0; v < kNodes; ++v) ++owned[ring.shard_of(v)];
  for (std::size_t s = 0; s < kShards; ++s) {
    // Even share is 25%; with 64 vnodes the spread stays well inside
    // [10%, 45%] — the bound is loose on purpose (it guards against a
    // broken hash, not variance).
    EXPECT_GT(owned[s], kNodes / 10) << "shard " << s;
    EXPECT_LT(owned[s], kNodes * 45 / 100) << "shard " << s;
  }
}

TEST(HashRingTest, AppendingShardOnlyMovesKeysToTheNewShard) {
  constexpr NodeId kNodes = 20000;
  HashRing before(3, kDefaultVnodes);
  HashRing after(4, kDefaultVnodes);
  std::size_t moved = 0;
  for (NodeId v = 0; v < kNodes; ++v) {
    const std::uint32_t old_shard = before.shard_of(v);
    const std::uint32_t new_shard = after.shard_of(v);
    if (old_shard == new_shard) continue;
    ++moved;
    // Consistent hashing: a key may only move TO the appended shard.
    EXPECT_EQ(new_shard, 3u) << "node " << v;
  }
  // Expected ~1/4 of the keyspace; anything past half means resharding.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kNodes / 2);
}

// ---- HealthTracker ----

TEST(HealthTrackerTest, EjectsProbesAndReadmits) {
  HealthOptions options;
  options.fail_threshold = 2;
  options.eject_cooldown_ms = 10;  // 10ms cooldown = 10'000'000ns
  HealthTracker health({2}, options);
  const std::uint64_t t0 = 1'000'000'000;

  EXPECT_TRUE(health.allow(0, 0, t0));
  health.record_failure(0, 0, t0);
  EXPECT_TRUE(health.allow(0, 0, t0));  // one failure: still healthy
  health.record_failure(0, 0, t0);      // threshold reached: ejected
  EXPECT_FALSE(health.allow(0, 0, t0));
  EXPECT_FALSE(health.usable(0, 0));
  EXPECT_TRUE(health.allow(0, 1, t0));  // the peer is untouched

  // Cooldown not yet over.
  EXPECT_FALSE(health.allow(0, 0, t0 + 9'000'000));
  // Cooldown over: exactly one half-open probe is granted.
  EXPECT_TRUE(health.allow(0, 0, t0 + 11'000'000));
  EXPECT_FALSE(health.allow(0, 0, t0 + 11'000'000));
  EXPECT_TRUE(health.usable(0, 0));  // probing counts as usable

  // Probe fails: re-ejected, cooldown restarts from the failure.
  health.record_failure(0, 0, t0 + 12'000'000);
  EXPECT_FALSE(health.allow(0, 0, t0 + 13'000'000));
  EXPECT_TRUE(health.allow(0, 0, t0 + 23'000'000));  // next probe

  // Probe succeeds: fully healthy again, failure streak cleared.
  health.record_success(0, 0);
  EXPECT_TRUE(health.allow(0, 0, t0 + 24'000'000));
  health.record_failure(0, 0, t0 + 25'000'000);
  EXPECT_TRUE(health.allow(0, 0, t0 + 25'000'000));  // streak is 1 of 2
}

// ---- Loopback integration ----

void expect_same_subgraph(const core::MiniBatchSample& served,
                          const core::MiniBatchSample& reference) {
  ASSERT_EQ(served.layers.size(), reference.layers.size());
  for (std::size_t l = 0; l < served.layers.size(); ++l) {
    EXPECT_EQ(served.layers[l].targets, reference.layers[l].targets)
        << "layer " << l;
    EXPECT_EQ(served.layers[l].sample_begin,
              reference.layers[l].sample_begin)
        << "layer " << l;
    EXPECT_EQ(served.layers[l].neighbors, reference.layers[l].neighbors)
        << "layer " << l;
  }
  EXPECT_EQ(served.checksum(), reference.checksum());
}

// Threads and VmSize (kB) from /proc/self/status.
struct ProcessFootprint {
  std::uint64_t threads = 0;
  std::uint64_t vm_size_kb = 0;
};

ProcessFootprint process_footprint() {
  ProcessFootprint footprint;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") status >> footprint.threads;
    if (key == "VmSize:") status >> footprint.vm_size_kb;
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return footprint;
}

std::uint64_t global_counter(const char* name) {
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return v;
  }
  return 0;
}

// One shard replica: its own sampler (over the shared graph base) and
// server, like one ondemand_server process in a real deployment.
struct ShardProcess {
  std::unique_ptr<core::RingSampler> sampler;
  std::unique_ptr<net::Server> server;

  std::uint16_t port() const { return server->port(); }
  void stop() { server->stop(); }
};

class RouterLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    csr_ = make_test_csr();
    base_ = write_test_graph(dir_, csr_);
  }

  core::SamplerConfig sampler_config() const {
    core::SamplerConfig config;
    config.fanouts = {5, 3};
    config.batch_size = 64;
    config.num_threads = 1;
    config.queue_depth = 32;
    config.seed = 99;
    return config;
  }

  ShardProcess start_shard_replica() {
    ShardProcess shard;
    auto sampler = core::RingSampler::open(base_, sampler_config());
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    shard.sampler = std::move(sampler).value();
    net::ServerOptions options;  // port 0: ephemeral
    options.threads = 1;
    auto server = net::Server::start(*shard.sampler, options);
    RS_CHECK_MSG(server.is_ok(), server.status().to_string());
    shard.server = std::move(server).value();
    return shard;
  }

  // shards[s] = the replica ports of shard s.
  FrontendOptions frontend_options(
      const std::vector<std::vector<std::uint16_t>>& shards) const {
    std::string text = "# rs-shard-map v1\nvnodes 32\n";
    for (const auto& replicas : shards) {
      text += "shard";
      for (const std::uint16_t port : replicas) {
        text += " 127.0.0.1:" + std::to_string(port);
      }
      text += "\n";
    }
    auto map = ShardMap::parse(text);
    RS_CHECK_MSG(map.is_ok(), map.status().to_string());
    FrontendOptions options;
    options.port = 0;
    options.router.map = std::move(map).value();
    options.router.connect_retry_ms = 5000;
    options.router.recv_timeout_ms = 20'000;
    return options;
  }

  net::Client connect_client(const Frontend& frontend) const {
    net::ClientOptions options;
    options.port = frontend.port();
    options.recv_timeout_ms = 20'000;
    auto client = net::Client::connect(options);
    RS_CHECK_MSG(client.is_ok(), client.status().to_string());
    return std::move(client).value();
  }

  std::unique_ptr<core::RingSampler> open_reference() {
    auto sampler = core::RingSampler::open(base_, sampler_config());
    RS_CHECK_MSG(sampler.is_ok(), sampler.status().to_string());
    return std::move(sampler).value();
  }

  // Routes one request and asserts the merged response is bit-identical
  // to the unsharded reference.
  void expect_routed_matches_reference(
      net::Client& client, core::RingSampler& reference,
      const std::vector<NodeId>& nodes,
      const std::vector<std::uint32_t>& fanouts, std::uint64_t seed) {
    net::wire::SampleRequest request;
    request.request_id = seed * 1000 + 1;
    request.rng_seed = seed;
    request.nodes = nodes;
    request.fanouts = fanouts;
    request.trace_id = seed * 1000 + 7;
    auto response = client.sample(request);
    RS_ASSERT_OK(response);
    ASSERT_EQ(response.value().status, net::wire::WireStatus::kOk)
        << net::wire::wire_status_name(response.value().status);
    EXPECT_EQ(response.value().request_id, request.request_id);
    EXPECT_EQ(response.value().trace_id, request.trace_id);
    auto ref = reference.sample_for_serving(0, nodes, fanouts, seed);
    RS_ASSERT_OK(ref);
    expect_same_subgraph(response.value().subgraph, ref.value());
  }

  TempDir dir_;
  graph::Csr csr_;
  std::string base_;
};

TEST_F(RouterLoopbackTest, MergedResponseBitIdenticalToUnsharded) {
  ShardProcess shard0 = start_shard_replica();
  ShardProcess shard1 = start_shard_replica();
  auto frontend = Frontend::start(
      frontend_options({{shard0.port()}, {shard1.port()}}));
  RS_ASSERT_OK(frontend);
  auto reference = open_reference();
  net::Client client = connect_client(*frontend.value());

  // Multi-node, multi-hop, assorted seeds — the frontier after hop 0
  // spans both shards, so the merge path is genuinely exercised.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_routed_matches_reference(
        client, *reference, {1, 42, 999, 1500}, {5, 3}, seed);
  }
  // Single node, single hop.
  expect_routed_matches_reference(client, *reference, {7}, {2}, 77);
  // Duplicate seed nodes keep their per-occurrence slots.
  expect_routed_matches_reference(client, *reference, {5, 5, 5}, {5, 3},
                                  123);
  // Narrower fanouts than the configured schedule.
  expect_routed_matches_reference(client, *reference, {10, 20, 30},
                                  {1, 1}, 9);

  client.close();
  frontend.value()->stop();
}

TEST_F(RouterLoopbackTest, InfoIsMergedAndBadRequestsAreMalformed) {
  ShardProcess shard0 = start_shard_replica();
  ShardProcess shard1 = start_shard_replica();
  auto frontend = Frontend::start(
      frontend_options({{shard0.port()}, {shard1.port()}}));
  RS_ASSERT_OK(frontend);
  net::Client client = connect_client(*frontend.value());

  auto info = client.info();
  RS_ASSERT_OK(info);
  EXPECT_EQ(info.value().num_nodes, csr_.num_nodes());
  EXPECT_EQ(info.value().max_batch, 64u);
  EXPECT_EQ(info.value().fanouts, (std::vector<std::uint32_t>{5, 3}));

  net::wire::SampleRequest request;
  request.request_id = 1;
  request.rng_seed = 1;
  request.nodes = {static_cast<NodeId>(csr_.num_nodes())};  // out of range
  request.fanouts = {2};
  auto response = client.sample(request);
  RS_ASSERT_OK(response);
  EXPECT_EQ(response.value().status, net::wire::WireStatus::kMalformed);

  request.request_id = 2;
  request.nodes = {1};
  request.fanouts = {6};  // above the shard cap of 5
  response = client.sample(request);
  RS_ASSERT_OK(response);
  EXPECT_EQ(response.value().status, net::wire::WireStatus::kMalformed);

  // The connection survives semantic rejects (mirrors net::Server).
  request.request_id = 3;
  request.fanouts = {2};
  response = client.sample(request);
  RS_ASSERT_OK(response);
  EXPECT_EQ(response.value().status, net::wire::WireStatus::kOk);

  // A stats scrape at the front door exports the router.* registry.
  auto stats = client.stats();
  RS_ASSERT_OK(stats);
  EXPECT_NE(stats.value().find("router.requests"), std::string::npos);

  client.close();
  frontend.value()->stop();
}

TEST_F(RouterLoopbackTest, ExpiredDeadlineShedsWithDeadlineExceeded) {
  ShardProcess shard0 = start_shard_replica();
  auto frontend = Frontend::start(frontend_options({{shard0.port()}}));
  RS_ASSERT_OK(frontend);
  net::Client client = connect_client(*frontend.value());

  net::wire::SampleRequest request;
  request.request_id = 1;
  request.rng_seed = 1;
  request.nodes = {1, 2, 3};
  request.fanouts = {5, 3};
  request.deadline_ns = 1;  // expired before the first hop can scatter
  auto response = client.sample(request);
  RS_ASSERT_OK(response);
  EXPECT_EQ(response.value().status,
            net::wire::WireStatus::kDeadlineExceeded);
  EXPECT_TRUE(response.value().subgraph.layers.empty());

  client.close();
  frontend.value()->stop();
}

TEST_F(RouterLoopbackTest, FailsOverToReplicaWhenPrimaryDies) {
  ShardProcess replica_a = start_shard_replica();  // shard 0 primary
  ShardProcess replica_b = start_shard_replica();  // shard 0 peer
  ShardProcess shard1 = start_shard_replica();
  FrontendOptions options = frontend_options(
      {{replica_a.port(), replica_b.port()}, {shard1.port()}});
  // Eject fast and keep the dead primary out for the rest of the test.
  options.router.health.fail_threshold = 1;
  options.router.health.eject_cooldown_ms = 60'000;
  auto frontend = Frontend::start(options);
  RS_ASSERT_OK(frontend);
  auto reference = open_reference();
  net::Client client = connect_client(*frontend.value());

  // Warm path through the primary.
  expect_routed_matches_reference(client, *reference, {1, 42, 999, 1500},
                                  {5, 3}, 11);

  // Kill shard 0's primary mid-run; routed answers must not change.
  const std::uint64_t ejections_before = global_counter("router.ejections");
  replica_a.stop();
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    expect_routed_matches_reference(client, *reference,
                                    {1, 42, 999, 1500}, {5, 3}, seed);
  }
  // The dead primary was detected and ejected (EOF on the established
  // channel or a refused reconnect — both count a health failure, and
  // fail_threshold is 1).
  EXPECT_GT(global_counter("router.ejections"), ejections_before);

  client.close();
  frontend.value()->stop();
}

TEST_F(RouterLoopbackTest, StaysBitIdenticalUnderSocketFaults) {
  // Shard-side socket faults only: the servers snapshot RS_FAULT at
  // start, and clearing it afterwards keeps the router/client side
  // clean. Every injected fault kills a shard connection, so the
  // router's recovery path (reconnect, retry, failover) does the work.
  io::FaultConfig faults;
  faults.fail_rate = 0.05;
  faults.seed = 7;
  faults.max_faults = 8;
  io::set_fault_config(faults);
  ShardProcess replica_a = start_shard_replica();
  ShardProcess replica_b = start_shard_replica();
  ShardProcess shard1 = start_shard_replica();
  io::clear_fault_config();

  FrontendOptions options = frontend_options(
      {{replica_a.port(), replica_b.port()}, {shard1.port()}});
  // Faults are transient here: a high threshold keeps both replicas
  // admitted so every request can still be answered.
  options.router.health.fail_threshold = 100;
  auto frontend = Frontend::start(options);
  RS_ASSERT_OK(frontend);
  auto reference = open_reference();
  net::Client client = connect_client(*frontend.value());

  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    expect_routed_matches_reference(client, *reference, {3, 17, 256, 1999},
                                    {5, 3}, seed);
  }

  client.close();
  frontend.value()->stop();
}

TEST_F(RouterLoopbackTest, ConnectionChurnKeepsThreadsAndMemoryBounded) {
  ShardProcess shard0 = start_shard_replica();
  auto frontend = Frontend::start(frontend_options({{shard0.port()}}));
  RS_ASSERT_OK(frontend);
  const std::uint16_t port = frontend.value()->port();
  auto connect_and_close = [&](bool ask_info) {
    if (ask_info) {
      net::Client client = connect_client(*frontend.value());
      RS_ASSERT_OK(client.info());
      client.close();
      return;
    }
    auto channel = net::Channel::connect("127.0.0.1", port, 0);
    RS_ASSERT_OK(channel);
    channel.value().close();
  };
  // Warm-up: every serving loop is running before the baseline.
  for (int i = 0; i < 16; ++i) connect_and_close(true);
  const ProcessFootprint before = process_footprint();

  for (int i = 0; i < 300; ++i) {
    connect_and_close(i % 10 == 0);
    if (HasFatalFailure()) return;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const ProcessFootprint after = process_footprint();
  // A thread per connection that is never joined keeps its stack
  // mapped: about 8 MB of VmSize per connection, ~2.4 GB over this loop.
  EXPECT_LE(after.threads, before.threads + 8);
  EXPECT_LE(after.vm_size_kb, before.vm_size_kb + std::uint64_t{64} * 1024);
  frontend.value()->stop();
}

}  // namespace
}  // namespace rs::router
