#include "router/router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/serving_determinism.h"
#include "obs/trace.h"
#include "util/common.h"

namespace rs::router {
namespace {

using net::Channel;

// Sub-request ids double as flow-trace ids, so they must be unique
// across every session thread in the process, not just per connection.
std::atomic<std::uint64_t> g_next_sub_id{1};

std::uint64_t ms_to_ns(std::uint64_t ms) { return ms * 1'000'000; }

// Remaining budget a sub-request should carry, given the parent's
// absolute deadline (0 = no deadline). Callers abort before calling
// this with an already-expired deadline; clamp to 1ns as a backstop so
// a race never turns "expired" into "no deadline".
std::uint64_t remaining_budget_ns(std::uint64_t deadline_abs_ns,
                                  std::uint64_t now_ns) {
  if (deadline_abs_ns == 0) return 0;
  return deadline_abs_ns > now_ns ? deadline_abs_ns - now_ns : 1;
}

Result<net::wire::InfoResponse> fetch_shard_info(
    const std::vector<Endpoint>& replicas, std::uint32_t connect_retry_ms,
    std::uint32_t recv_timeout_ms) {
  Status last = Status::io_error("router: shard has no replicas");
  // connect_retry_ms is the whole startup window for this shard, not a
  // per-connect budget: keep cycling the replica set until it expires,
  // so a shard still booting — or a probe connection that dies mid-read
  // (fault injection, flaky network) — doesn't abort router startup
  // while a healthy peer exists.
  const std::uint64_t probe_deadline_ns =
      obs::now_ns() + ms_to_ns(connect_retry_ms);
  for (bool first_pass = true;; first_pass = false) {
    if (!first_pass) {
      if (obs::now_ns() >= probe_deadline_ns) return last;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  for (const Endpoint& endpoint : replicas) {
    auto connected = Channel::connect(endpoint.host, endpoint.port, 0);
    if (!connected.is_ok()) {
      last = connected.status();
      continue;
    }
    Channel channel = std::move(connected).value();
    std::vector<std::uint8_t> frame;
    net::wire::encode_info_request(1, frame);
    Status sent = channel.send(frame);
    if (!sent.is_ok()) {
      last = std::move(sent);
      continue;
    }
    const std::uint64_t deadline_ns =
        recv_timeout_ms == 0
            ? 0
            : obs::now_ns() + ms_to_ns(recv_timeout_ms);
    net::wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    Status read = channel.read_frame(&header, &body, deadline_ns);
    if (!read.is_ok()) {
      last = std::move(read);
      continue;
    }
    if (header.kind != net::wire::FrameKind::kInfoResponse) {
      last = Status::corrupt("router: expected info response from " +
                             endpoint.to_string());
      continue;
    }
    net::wire::InfoResponse info;
    Status decoded = net::wire::decode_info_response(body, &info);
    if (!decoded.is_ok()) {
      last = std::move(decoded);
      continue;
    }
    if (info.fanouts.empty() || info.max_batch == 0) {
      return Status::invalid("router: shard " + endpoint.to_string() +
                             " advertises no serving capacity");
    }
    return info;
  }
  }
}

}  // namespace

Router::Router(RouterOptions options, HashRing ring)
    : options_(std::move(options)), ring_(std::move(ring)) {
  std::vector<std::size_t> replica_counts;
  replica_counts.reserve(options_.map.num_shards());
  for (const auto& replicas : options_.map.shards) {
    replica_counts.push_back(replicas.size());
  }
  health_ =
      std::make_unique<HealthTracker>(replica_counts, options_.health);

  auto& reg = obs::Registry::global();
  metrics_.requests = reg.counter("router.requests");
  metrics_.subrequests = reg.counter("router.subrequests");
  metrics_.hedges = reg.counter("router.hedges");
  metrics_.hedges_won = reg.counter("router.hedges_won");
  metrics_.retries = reg.counter("router.retries");
  metrics_.failovers = reg.counter("router.failovers");
  metrics_.errors = reg.counter("router.errors");
  metrics_.deadline_exceeded = reg.counter("router.deadline_exceeded");
  metrics_.malformed = reg.counter("router.malformed");
  metrics_.sample_ns = reg.histogram("router.sample_ns");
  metrics_.hop_ns = reg.histogram("router.hop_ns");
  metrics_.shard_rtt_ns.reserve(options_.map.num_shards());
  for (std::size_t s = 0; s < options_.map.num_shards(); ++s) {
    // Documented as router.shard.<k>.rtt_ns in docs/observability.md.
    metrics_.shard_rtt_ns.push_back(
        reg.histogram("router.shard." + std::to_string(s) + ".rtt_ns"));
  }
}

Result<std::unique_ptr<Router>> Router::create(
    const RouterOptions& options) {
  if (options.map.num_shards() == 0) {
    return Status::invalid("router: shard map has no shards");
  }
  if (options.max_inflight_per_shard == 0) {
    return Status::invalid("router: max_inflight_per_shard must be >= 1");
  }

  // Probe every shard and prove they serve the same graph: merging
  // sub-responses from shards with different node spaces would be
  // silently wrong, so disagreement is a startup failure, not a metric.
  std::vector<net::wire::InfoResponse> infos;
  infos.reserve(options.map.num_shards());
  for (std::size_t s = 0; s < options.map.num_shards(); ++s) {
    auto info = fetch_shard_info(options.map.shards[s],
                                 options.connect_retry_ms,
                                 options.recv_timeout_ms);
    if (!info.is_ok()) {
      return Status(info.status().code(),
                    "router: shard " + std::to_string(s) + " (" +
                        options.map.shards[s][0].to_string() +
                        ") unreachable: " + info.status().message());
    }
    infos.push_back(std::move(info).value());
  }
  for (std::size_t s = 1; s < infos.size(); ++s) {
    if (infos[s].num_nodes != infos[0].num_nodes ||
        infos[s].num_edges != infos[0].num_edges) {
      return Status::invalid(
          "router: shard " + std::to_string(s) +
          " serves a different graph (num_nodes/num_edges mismatch)");
    }
  }

  // Merged advertised info. Sub-requests are single-hop, so any fanout
  // the router accepts for ANY layer must pass every shard's LAYER-0
  // validation; cap0 is that ceiling.
  net::wire::InfoResponse merged;
  merged.num_nodes = infos[0].num_nodes;
  merged.num_edges = infos[0].num_edges;
  merged.max_batch = infos[0].max_batch;
  std::size_t num_layers = infos[0].fanouts.size();
  std::uint32_t cap0 = infos[0].fanouts[0];
  for (const auto& info : infos) {
    merged.max_batch = std::min(merged.max_batch, info.max_batch);
    num_layers = std::min(num_layers, info.fanouts.size());
    cap0 = std::min(cap0, info.fanouts[0]);
  }
  merged.fanouts.resize(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    merged.fanouts[l] = cap0;
    for (const auto& info : infos) {
      merged.fanouts[l] = std::min(merged.fanouts[l], info.fanouts[l]);
    }
  }

  std::unique_ptr<Router> router(new Router(
      options, HashRing(options.map.num_shards(), options.map.vnodes)));
  router->info_ = std::move(merged);
  return router;
}

// ---- RouterSession ----

struct RouterSession::SubRequest {
  std::uint64_t id = 0;
  std::uint32_t shard = 0;
  // Frontier positions this chunk covers (ascending) and their node
  // ids; the shard answers in exactly this order, which is what makes
  // the merge positional.
  std::vector<std::uint32_t> positions;
  std::vector<NodeId> nodes;
};

struct RouterSession::Flight {
  SubRequest sub;
  std::uint32_t replica = kNoReplica;  // kNoReplica = not sent yet
  std::uint32_t hedge_replica = kNoReplica;
  std::uint64_t sent_ns = 0;
  std::uint32_t sends = 0;
  bool flow_open = false;
  bool done = false;
  core::LayerSample result;
};

struct RouterSession::HopResult {
  core::LayerSample layer;
};

RouterSession::RouterSession(Router& router)
    : router_(router), max_replicas_(router.map().max_replicas()) {
  channels_.resize(router.map().num_shards() * max_replicas_);
}

net::Channel* RouterSession::channel(std::uint32_t shard,
                                     std::uint32_t replica) {
  Channel& ch = channels_[shard * max_replicas_ + replica];
  if (ch.open()) return &ch;
  const Endpoint& endpoint = router_.map().shards[shard][replica];
  // Single attempt: replica selection (not connect retry) is the
  // recovery path, and the health tracker stops repeat offenders.
  auto connected = Channel::connect(endpoint.host, endpoint.port, 0);
  if (!connected.is_ok()) {
    router_.health().record_failure(shard, replica, obs::now_ns());
    return nullptr;
  }
  ch = std::move(connected).value();
  return &ch;
}

net::wire::WireStatus RouterSession::run_hop(
    const net::wire::SampleRequest& request, std::uint32_t layer,
    const std::vector<NodeId>& frontier, std::uint64_t deadline_abs_ns,
    HopResult* out) {
  using net::wire::WireStatus;
  const Router::Metrics& m = router_.metrics();
  const RouterOptions& opt = router_.options();
  RS_OBS_SPAN("router", "hop", "layer", layer);
  const std::uint64_t hop_start_ns = obs::now_ns();
  const std::uint64_t layer_seed =
      core::serving_layer_seed(request.rng_seed, layer);
  const std::uint32_t fanout = request.fanouts[layer];
  const std::uint32_t max_batch =
      std::min(router_.info().max_batch, net::wire::kMaxRequestNodes);

  // Partition the frontier by ring ownership, order-preserving: each
  // shard's positions stay ascending, so its answers slot back by index.
  const std::size_t num_shards = router_.map().num_shards();
  std::vector<std::vector<std::uint32_t>> by_shard(num_shards);
  for (std::uint32_t p = 0; p < frontier.size(); ++p) {
    by_shard[router_.ring().shard_of(frontier[p])].push_back(p);
  }

  std::vector<Flight> flights;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<std::uint32_t>& positions = by_shard[s];
    for (std::size_t off = 0; off < positions.size(); off += max_batch) {
      const std::size_t len =
          std::min<std::size_t>(max_batch, positions.size() - off);
      Flight flight;
      flight.sub.id = g_next_sub_id.fetch_add(1, std::memory_order_relaxed);
      flight.sub.shard = s;
      flight.sub.positions.assign(positions.begin() + off,
                                  positions.begin() + off + len);
      flight.sub.nodes.reserve(len);
      for (const std::uint32_t p : flight.sub.positions) {
        flight.sub.nodes.push_back(frontier[p]);
      }
      flights.push_back(std::move(flight));
    }
  }

  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(flights.size());
  for (std::size_t i = 0; i < flights.size(); ++i) {
    by_id.emplace(flights[i].sub.id, i);
  }

  const std::uint64_t hard_deadline_ns =
      opt.recv_timeout_ms == 0
          ? 0
          : hop_start_ns + ms_to_ns(opt.recv_timeout_ms);
  const std::uint64_t hedge_after_ns = ms_to_ns(opt.hedge_delay_ms);
  std::vector<std::uint32_t> inflight_per_shard(num_shards, 0);
  std::size_t completed = 0;

  auto encode_sub = [&](const Flight& f, std::vector<std::uint8_t>* frame) {
    net::wire::SampleRequest sub;
    sub.request_id = f.sub.id;
    sub.rng_seed = layer_seed;  // the shard's layer 0 == our layer `layer`
    sub.nodes = f.sub.nodes;
    sub.fanouts.assign(1, fanout);
    sub.trace_id = request.trace_id;
    sub.deadline_ns = remaining_budget_ns(deadline_abs_ns, obs::now_ns());
    sub.tenant_id = request.tenant_id;
    sub.priority = request.priority;
    frame->clear();
    net::wire::encode_sample_request(sub, *frame);
  };

  // Ends the flow arrow of every still-open flight; every abort path
  // must run this so begun flows balance (scripts/rs_analyze.py checks
  // the trace in CI via check_trace_json.py).
  auto end_open_flows = [&] {
    for (Flight& f : flights) {
      if (f.flow_open && !f.done) {
        obs::trace_flow_end("router", "subrequest", f.sub.id);
        f.flow_open = false;
      }
    }
  };

  // Sends (or resends) `f` to the first usable replica, preferring
  // `preferred` and skipping `exclude`; returns false when no replica
  // of the shard is currently usable.
  auto try_send = [&](Flight& f, std::uint32_t preferred,
                      std::uint32_t exclude) -> bool {
    const std::uint32_t n = static_cast<std::uint32_t>(
        router_.map().shards[f.sub.shard].size());
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t r = (preferred + i) % n;
      if (r == exclude && n > 1) continue;
      if (!router_.health().allow(f.sub.shard, r, obs::now_ns())) continue;
      Channel* ch = channel(f.sub.shard, r);
      if (ch == nullptr) continue;  // connect failed; health recorded
      std::vector<std::uint8_t> frame;
      encode_sub(f, &frame);
      if (!ch->send(frame).is_ok()) {
        router_.health().record_failure(f.sub.shard, r, obs::now_ns());
        ch->close();
        continue;
      }
      if (!f.flow_open) {
        obs::trace_flow_begin("router", "subrequest", f.sub.id);
        f.flow_open = true;
      } else {
        obs::trace_flow_step("router", "subrequest", f.sub.id);
      }
      f.replica = r;
      f.sent_ns = obs::now_ns();
      ++f.sends;
      return true;
    }
    return false;
  };

  // One flight finished (answer accepted or request aborted); balance
  // the books.
  auto finish_flight = [&](Flight& f) {
    f.done = true;
    ++completed;
    --inflight_per_shard[f.sub.shard];
    if (f.flow_open) {
      obs::trace_flow_end("router", "subrequest", f.sub.id);
      f.flow_open = false;
    }
  };

  // Caps retry churn per sub-request: every replica gets a shot, plus
  // one reconnect-the-same-peer pass for single-replica shards.
  const std::uint32_t max_sends_per_sub =
      static_cast<std::uint32_t>(router_.map().max_replicas()) + 1;

  while (completed < flights.size()) {
    const std::uint64_t now_ns = obs::now_ns();
    if (deadline_abs_ns != 0 && now_ns >= deadline_abs_ns) {
      end_open_flows();
      return WireStatus::kDeadlineExceeded;
    }
    if (hard_deadline_ns != 0 && now_ns >= hard_deadline_ns) {
      end_open_flows();
      return WireStatus::kError;
    }

    // Scatter, bounded by the per-shard window.
    for (Flight& f : flights) {
      if (f.done || f.replica != kNoReplica) continue;
      if (inflight_per_shard[f.sub.shard] >= opt.max_inflight_per_shard) {
        continue;
      }
      if (!try_send(f, 0, kNoReplica)) {
        end_open_flows();
        return WireStatus::kError;
      }
      m.subrequests.add();
      ++inflight_per_shard[f.sub.shard];
    }

    // Hedge stragglers onto a second replica (same sub id: first answer
    // wins, the loser is popped later and ignored as a done flight).
    if (hedge_after_ns != 0) {
      for (Flight& f : flights) {
        if (f.done || f.replica == kNoReplica ||
            f.hedge_replica != kNoReplica) {
          continue;
        }
        if (obs::now_ns() - f.sent_ns < hedge_after_ns) continue;
        const std::uint32_t n = static_cast<std::uint32_t>(
            router_.map().shards[f.sub.shard].size());
        for (std::uint32_t i = 1; i < n; ++i) {
          const std::uint32_t r = (f.replica + i) % n;
          if (!router_.health().usable(f.sub.shard, r)) continue;
          Channel* ch = channel(f.sub.shard, r);
          if (ch == nullptr) continue;
          std::vector<std::uint8_t> frame;
          encode_sub(f, &frame);
          if (!ch->send(frame).is_ok()) {
            router_.health().record_failure(f.sub.shard, r, obs::now_ns());
            ch->close();
            continue;
          }
          f.hedge_replica = r;
          m.hedges.add();
          obs::trace_flow_step("router", "subrequest", f.sub.id);
          break;
        }
      }
    }

    // Build the gather set: every distinct (shard, replica) channel
    // carrying a live flight, primary or hedge.
    std::vector<Channel*> poll_set;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> poll_tags;
    std::vector<bool> in_set(channels_.size(), false);
    auto add_to_set = [&](std::uint32_t shard, std::uint32_t replica) {
      const std::size_t slot = shard * max_replicas_ + replica;
      if (in_set[slot]) return;
      in_set[slot] = true;
      poll_set.push_back(&channels_[slot]);
      poll_tags.emplace_back(shard, replica);
    };
    for (const Flight& f : flights) {
      if (f.done || f.replica == kNoReplica) continue;
      add_to_set(f.sub.shard, f.replica);
      if (f.hedge_replica != kNoReplica) {
        add_to_set(f.sub.shard, f.hedge_replica);
      }
    }

    // Wait bounded by the nearest timed event (deadline, hard bound, or
    // the next hedge fire) so none of them slips by a full poll slice.
    std::uint64_t wait_ms = 100;
    {
      const std::uint64_t base = obs::now_ns();
      auto bound_to = [&](std::uint64_t event_ns) {
        const std::uint64_t delta_ms =
            event_ns > base ? (event_ns - base) / 1'000'000 + 1 : 1;
        wait_ms = std::min(wait_ms, delta_ms);
      };
      if (deadline_abs_ns != 0) bound_to(deadline_abs_ns);
      if (hard_deadline_ns != 0) bound_to(hard_deadline_ns);
      if (hedge_after_ns != 0) {
        for (const Flight& f : flights) {
          if (f.done || f.replica == kNoReplica ||
              f.hedge_replica != kNoReplica) {
            continue;
          }
          bound_to(f.sent_ns + hedge_after_ns);
        }
      }
    }
    if (!net::poll_channels(poll_set, static_cast<std::uint32_t>(wait_ms))
             .is_ok()) {
      end_open_flows();
      return WireStatus::kError;
    }

    // Gather: pop every buffered frame, then handle connection death.
    for (std::size_t c = 0; c < poll_set.size(); ++c) {
      Channel* ch = poll_set[c];
      const std::uint32_t tag_shard = poll_tags[c].first;
      const std::uint32_t tag_replica = poll_tags[c].second;
      for (;;) {
        net::wire::FrameHeader header;
        std::vector<std::uint8_t> body;
        bool complete = false;
        if (!ch->pop_frame(&header, &body, &complete).is_ok()) {
          // Corrupt stream: unusable, same treatment as a hangup.
          ch->close();
          break;
        }
        if (!complete) break;
        net::wire::SampleResponse resp;
        if (header.kind != net::wire::FrameKind::kSampleResponse ||
            !net::wire::decode_sample_response(body, &resp, header.version)
                 .is_ok()) {
          ch->close();
          break;
        }
        const auto it = by_id.find(resp.request_id);
        if (it == by_id.end()) continue;  // stale frame from a past hop
        Flight& f = flights[it->second];
        if (f.done) continue;  // the losing copy of a hedge race

        if (resp.status == WireStatus::kOk) {
          // Shape check: exactly the single-hop slice we asked for.
          const bool shape_ok =
              resp.subgraph.layers.size() == 1 &&
              resp.subgraph.layers[0].targets == f.sub.nodes &&
              resp.subgraph.layers[0].sample_begin.size() ==
                  f.sub.nodes.size() + 1;
          if (!shape_ok) {
            // The shard answered a different request than we sent —
            // config skew, not a transient. Fail the whole request.
            end_open_flows();
            return WireStatus::kError;
          }
          router_.health().record_success(tag_shard, tag_replica);
          if (tag_replica == f.hedge_replica) m.hedges_won.add();
          m.shard_rtt_ns[f.sub.shard].record_ns(obs::now_ns() - f.sent_ns);
          f.result = std::move(resp.subgraph.layers[0]);
          finish_flight(f);
          continue;
        }
        if (resp.status == WireStatus::kDeadlineExceeded) {
          end_open_flows();
          return WireStatus::kDeadlineExceeded;
        }
        if (resp.status == WireStatus::kOverloaded ||
            resp.status == WireStatus::kError) {
          // The peer is alive (it answered); shed/error is a reason to
          // retry elsewhere, not a health failure.
          if (f.sends >= max_sends_per_sub ||
              !try_send(f, (tag_replica + 1) %
                               static_cast<std::uint32_t>(
                                   router_.map()
                                       .shards[f.sub.shard]
                                       .size()),
                        tag_replica)) {
            end_open_flows();
            return resp.status;
          }
          m.retries.add();
          continue;
        }
        // kMalformed: the shard rejected a sub-request the router
        // believed valid — advertised-info skew. Not retryable.
        end_open_flows();
        return WireStatus::kError;
      }

      if (ch->open()) continue;
      // The connection died. Flights riding it as a hedge just lose the
      // hedge; flights riding it as primary fail over — to the live
      // hedge copy when one is already in flight, else by resending.
      for (Flight& f : flights) {
        if (f.done || f.sub.shard != tag_shard) continue;
        if (f.hedge_replica == tag_replica) f.hedge_replica = kNoReplica;
        if (f.replica != tag_replica) continue;
        router_.health().record_failure(f.sub.shard, tag_replica,
                                        obs::now_ns());
        m.failovers.add();
        if (f.hedge_replica != kNoReplica) {
          f.replica = f.hedge_replica;
          f.hedge_replica = kNoReplica;
          continue;
        }
        if (f.sends >= max_sends_per_sub ||
            !try_send(f, tag_replica + 1, tag_replica)) {
          end_open_flows();
          return WireStatus::kError;
        }
      }
    }
  }

  // Positional merge: every frontier position got its neighbor slice
  // from exactly one sub-response; reassemble in frontier order, which
  // is precisely the unsharded sampler's layer layout.
  core::LayerSample& layer_out = out->layer;
  layer_out.targets = frontier;
  layer_out.sample_begin.assign(frontier.size() + 1, 0);
  for (const Flight& f : flights) {
    for (std::size_t i = 0; i < f.sub.positions.size(); ++i) {
      layer_out.sample_begin[f.sub.positions[i] + 1] =
          f.result.sample_begin[i + 1] - f.result.sample_begin[i];
    }
  }
  for (std::size_t p = 1; p <= frontier.size(); ++p) {
    layer_out.sample_begin[p] += layer_out.sample_begin[p - 1];
  }
  layer_out.neighbors.resize(layer_out.sample_begin[frontier.size()]);
  for (const Flight& f : flights) {
    for (std::size_t i = 0; i < f.sub.positions.size(); ++i) {
      const std::uint32_t p = f.sub.positions[i];
      std::copy(f.result.neighbors.begin() + f.result.sample_begin[i],
                f.result.neighbors.begin() + f.result.sample_begin[i + 1],
                layer_out.neighbors.begin() + layer_out.sample_begin[p]);
    }
  }

  m.hop_ns.record_ns(obs::now_ns() - hop_start_ns);
  return WireStatus::kOk;
}

void RouterSession::sample(const net::wire::SampleRequest& request,
                           std::uint64_t deadline_abs_ns,
                           net::wire::SampleResponse* response) {
  using net::wire::WireStatus;
  const Router::Metrics& m = router_.metrics();
  m.requests.add();
  RS_OBS_SPAN("router", "sample", "nodes",
              static_cast<std::uint64_t>(request.nodes.size()));
  const std::uint64_t start_ns = obs::now_ns();
  response->subgraph.layers.clear();

  // Semantic validation against the merged advertised info — the same
  // rules sample_for_serving applies, evaluated at the front door so a
  // bad request never fans out.
  const net::wire::InfoResponse& info = router_.info();
  bool valid = !request.nodes.empty() &&
               request.nodes.size() <= info.max_batch &&
               !request.fanouts.empty() &&
               request.fanouts.size() <= info.fanouts.size();
  if (valid) {
    for (std::size_t i = 0; i < request.fanouts.size(); ++i) {
      if (request.fanouts[i] == 0 ||
          request.fanouts[i] > info.fanouts[i]) {
        valid = false;
        break;
      }
    }
  }
  if (valid) {
    for (const NodeId node : request.nodes) {
      if (node >= info.num_nodes) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    response->status = WireStatus::kMalformed;
    m.malformed.add();
    return;
  }

  std::vector<NodeId> frontier(request.nodes.begin(), request.nodes.end());
  std::vector<core::LayerSample> layers;
  WireStatus shed = WireStatus::kOk;
  for (std::uint32_t l = 0; l < request.fanouts.size(); ++l) {
    if (frontier.empty()) break;  // mirrors the unsharded early-exit
    HopResult hop;
    shed = run_hop(request, l, frontier, deadline_abs_ns, &hop);
    if (shed != WireStatus::kOk) break;
    if (l + 1 < request.fanouts.size()) {
      // Next frontier: sorted unique neighbors, exactly
      // Workspace::dedup_into_targets.
      frontier = hop.layer.neighbors;
      std::sort(frontier.begin(), frontier.end());
      frontier.erase(std::unique(frontier.begin(), frontier.end()),
                     frontier.end());
    }
    layers.push_back(std::move(hop.layer));
  }

  response->status = shed;
  if (shed == WireStatus::kOk) {
    response->subgraph.layers = std::move(layers);
  } else if (shed == WireStatus::kDeadlineExceeded) {
    m.deadline_exceeded.add();
  } else if (shed == WireStatus::kError) {
    m.errors.add();
  }
  m.sample_ns.record_ns(obs::now_ns() - start_ns);
}

}  // namespace rs::router
