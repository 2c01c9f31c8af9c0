// Frontend: the TCP face of the sharded serving tier.
//
// A Router plus a net::Server whose loops run router handlers: each
// loop owns one RouterSession and answers
//   * kSampleRequest — routed (RouterSession::sample) under the
//     deadline the loop fixed at admission;
//   * kInfoRequest   — the router's merged info, so load generators
//     discover the graph exactly as they would from a shard;
//   * kStatsRequest  — the global metrics registry JSON (router.* lives
//     there), so svc_load's --server-stats-json scrapes the front door.
// Everything else is net::Server's: malformed-frame poisoning,
// connection and queue-depth admission, QoS classes and deadline drop
// at dequeue, stage histograms, request trace tracks and the
// uring/psync ladder. The loops register their metrics and trace
// category as router.front.* so they never mix with a shard's net.*
// in one process. A loop serves one routed request at a time.
#pragma once

#include <cstdint>
#include <memory>

#include "net/server.h"
#include "router/router.h"
#include "util/status.h"

namespace rs::router {

struct FrontendOptions {
  // TCP port to listen on; 0 picks an ephemeral port (query port()).
  std::uint16_t port = 0;
  // Concurrent client connections, split evenly over the serving loops
  // (min(hardware threads, max_connections) of them); excess accepts
  // are closed immediately (the client sees EOF).
  std::uint32_t max_connections = 64;
  RouterOptions router;
};

class Frontend {
 public:
  // Builds the Router (probing every shard) and starts the loops.
  static Result<std::unique_ptr<Frontend>> start(
      const FrontendOptions& options);

  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Stops the loops and closes their connections. Idempotent.
  void stop();

  std::uint16_t port() const { return server_->port(); }
  const Router& router() const { return *router_; }

 private:
  Frontend() = default;

  // Declared first so the loops (and their sessions) go before it.
  std::unique_ptr<Router> router_;
  std::unique_ptr<net::Server> server_;
};

}  // namespace rs::router
