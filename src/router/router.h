// Scatter/gather k-hop router over sampler shards (the scale-out
// serving tier).
//
// A Router fronts N sampler shards (net::Server / ondemand_server
// processes, each serving the SAME graph base) and presents the
// single-server wire contract: a k-hop SampleRequest in, one
// bit-identical SampleResponse out. Internally each hop is decomposed:
//
//   frontier --HashRing--> per-shard node lists --chunk--> sub-requests
//       (single-hop, rng_seed = serving_layer_seed(seed, l))
//   scatter over per-replica Channels, gather by echoed request_id,
//   merge positionally into one LayerSample, dedup -> next frontier.
//
// Bit-identity with the unsharded sampler rests on the per-
// (layer, target) RNG contract in core/serving_determinism.h: a shard
// answering a single-hop sub-request at its layer 0 reproduces exactly
// the draws the unsharded sampler would have made for those targets at
// layer l, so the merged response is byte-equal to
// core::RingSampler::sample_for_serving over the whole graph.
//
// Resilience, per sub-request:
//   * replica failover — a connection error or EOF records a health
//     failure and resends the sub-request to the next usable replica
//     (router.failovers); kOverloaded / kError answers retry the same
//     way (router.retries);
//   * hedging — a sub-request in flight longer than hedge_delay_ms is
//     duplicated to a second usable replica (router.hedges); first
//     answer wins (router.hedges_won counts wins by the hedge copy);
//   * health — consecutive failures eject a replica; a half-open probe
//     re-admits it after a cooldown (see router/health.h);
//   * deadlines — a v3 deadline budget starts when the frontend admits
//     the request, so frontend queue wait spends it too; what is left
//     is propagated to every sub-request, and an expired budget (or a
//     shard's kDeadlineExceeded answer) aborts the request with
//     kDeadlineExceeded.
//
// Threading: Router is the shared, immutable-after-create picture (shard
// map, ring, merged info, health tracker, metrics). Each frontend
// serving loop (a net::Server loop, see router/frontend.h) runs its own
// RouterSession as its handler; a session owns private per-replica
// Channels — so the
// data path is share-nothing and only health bookkeeping takes a lock.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "router/hash_ring.h"
#include "router/health.h"
#include "router/shard_map.h"
#include "util/status.h"

namespace rs::router {

struct RouterOptions {
  ShardMap map;
  // Connect retry window for the initial per-shard info probe (shards
  // may still be starting when the router comes up).
  std::uint32_t connect_retry_ms = 5000;
  // Hard per-request bound on waiting for sub-responses. 0 = forever.
  std::uint32_t recv_timeout_ms = 30000;
  // Duplicate a sub-request to a second replica after this long in
  // flight. 0 disables hedging.
  std::uint32_t hedge_delay_ms = 0;
  // Scatter window: sub-requests outstanding per shard at once. Bounds
  // router memory and keeps a slow shard from absorbing the whole
  // frontier before its first answer.
  std::uint32_t max_inflight_per_shard = 16;
  HealthOptions health;
};

class RouterSession;

class Router {
 public:
  // Connects to every shard (any usable replica), validates that all
  // shards serve the same graph, and computes the merged advertised
  // info. Fails if any shard is unreachable or the shards disagree on
  // num_nodes/num_edges.
  static Result<std::unique_ptr<Router>> create(const RouterOptions& options);

  const RouterOptions& options() const { return options_; }
  const ShardMap& map() const { return options_.map; }
  const HashRing& ring() const { return ring_; }
  HealthTracker& health() const { return *health_; }

  // The info the router advertises to its clients: num_nodes/num_edges
  // from the (agreeing) shards; max_batch = min over shards; fanout cap
  // for every layer = min(all shards' layer caps, all shards' LAYER-0
  // caps) — sub-requests are single-hop, so every routed fanout must
  // pass each shard's layer-0 validation.
  const net::wire::InfoResponse& info() const { return info_; }

  struct Metrics {
    obs::Counter requests;
    obs::Counter subrequests;
    obs::Counter hedges;
    obs::Counter hedges_won;
    obs::Counter retries;
    obs::Counter failovers;
    obs::Counter errors;
    obs::Counter deadline_exceeded;
    obs::Counter malformed;
    obs::LatencyHistogram sample_ns;
    obs::LatencyHistogram hop_ns;
    // Indexed by shard: per-shard sub-request round-trip latency
    // (registered as router.shard.<k>.rtt_ns).
    std::vector<obs::LatencyHistogram> shard_rtt_ns;
  };
  const Metrics& metrics() const { return metrics_; }

 private:
  Router(RouterOptions options, HashRing ring);

  RouterOptions options_;
  HashRing ring_;
  std::unique_ptr<HealthTracker> health_;
  net::wire::InfoResponse info_;
  Metrics metrics_;
};

// One serving loop's routing state and request handler: lazily-
// connected private Channels to every (shard, replica). NOT thread-safe;
// create one per loop.
class RouterSession final : public net::Handler {
 public:
  explicit RouterSession(Router& router);

  // The frontend loops' metric prefix and trace category, apart from a
  // co-located shard's net.*.
  const char* name() const override { return "router.front"; }
  const net::wire::InfoResponse& info() const override {
    return router_.info();
  }

  // Routes one k-hop request end to end: sets response->status and, on
  // kOk, response->subgraph. deadline_abs_ns is the absolute
  // obs::now_ns() deadline (0 = none); each sub-request carries what is
  // left of it, and the request sheds with kDeadlineExceeded once it
  // is spent.
  void sample(const net::wire::SampleRequest& request,
              std::uint64_t deadline_abs_ns,
              net::wire::SampleResponse* response) override;

 private:
  struct SubRequest;
  struct Flight;
  struct HopResult;

  // Scatters and gathers one hop; returns kOk or the status that sheds
  // the whole request.
  net::wire::WireStatus run_hop(const net::wire::SampleRequest& request,
                                std::uint32_t layer,
                                const std::vector<NodeId>& frontier,
                                std::uint64_t deadline_abs_ns,
                                HopResult* out);

  // The channel for (shard, replica), connecting if needed. Returns
  // null (and records a health failure) when the connect fails.
  net::Channel* channel(std::uint32_t shard, std::uint32_t replica);

  static constexpr std::uint32_t kNoReplica = 0xffffffffu;

  Router& router_;
  // channels_[shard * max_replicas + replica]; closed until first use.
  std::vector<net::Channel> channels_;
  std::size_t max_replicas_;
};

}  // namespace rs::router
