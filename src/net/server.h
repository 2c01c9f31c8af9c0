// net::Server: the io_uring-native sampling service (paper §4.4, the
// "on-demand serving" deployment of RingSampler).
//
// Architecture mirrors the sampler's share-nothing threading: each
// server thread owns one event loop — a private io_uring ring, a
// SO_REUSEPORT listening socket, a fixed slab of connection slots, and
// a request handler (on a sampler shard: worker context `t`) — so
// accepted connections never migrate and no lock sits on the request
// path. Accept, recv, send, and the
// batching/idle tick are all SQEs multiplexed on the *same* ring the
// sampler's disk reads use, which is the point: one completion loop
// drives both the network edge and storage.
//
// Degradation ladder (mirrors io::make_backend_auto): when the kernel
// lacks any of IORING_OP_ACCEPT/RECV/SEND/TIMEOUT (uring::probe_features
// .net_ops_supported()), or ServerOptions::force_psync is set, the same
// connection state machine runs on a poll(2) + nonblocking-socket loop
// instead. Protocol behavior is identical; only the syscall engine
// differs.
//
// Admission control: each loop sheds work at several gates. A
// connection beyond `max_connections` is accepted and immediately
// closed (counted as conn_rejects); a sample request arriving while
// `max_queue_depth` requests are already queued is answered with
// WireStatus::kOverloaded instead of being sampled. Requests that are
// admitted wait up to `batch_window_us` so arrivals coalesce into one
// processing pass (amortizing wakeups); per-request rng_seeds keep
// responses independent of that batching.
//
// QoS (wire v3): admitted requests land in one of three per-class
// deques (interactive / bulk / best-effort) drained by weighted round
// robin, so interactive traffic reaches the sampler first without
// starving bulk. A request carrying a deadline_ns budget is dropped at
// dequeue with kDeadlineExceeded once the budget is spent, and the
// remaining budget bounds its storage waits inside the sampler
// pipeline — an admitted request never completes past its deadline
// with kOk. Per-tenant quotas cap one tenant's queued requests, and a
// brownout ladder keyed on queue occupancy degrades gracefully under
// sustained overload: shed best-effort arrivals first, then bulk, then
// collapse the batch window so the queue drains at minimum latency.
//
// Request handlers: the loops own the wire, admission and QoS; what a
// decoded request *means* is a per-loop Handler. A sampler shard's
// handler runs sample_for_serving on its worker context; the router
// frontend's handler routes the request over the shard tier
// (router/frontend.h). Each loop calls only its own handler, from its
// own thread, so handlers need no locking.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/ring_sampler.h"
#include "net/wire.h"
#include "util/status.h"

namespace rs::net {

struct ServerOptions {
  // TCP port to listen on; 0 picks an ephemeral port (query port()).
  std::uint16_t port = 0;
  // Event-loop threads. Serving a sampler, thread t uses worker
  // context t, so this must be <= the sampler's num_threads; serving
  // handlers, it must equal their count.
  std::uint32_t threads = 1;
  // Per-thread connection slots; connections beyond this are accepted
  // and closed immediately (the client sees EOF, not a hang).
  std::uint32_t max_connections = 64;
  // Per-thread admitted-request ceiling; requests arriving beyond it
  // get an immediate kOverloaded response (shed, not queued).
  std::uint32_t max_queue_depth = 64;
  // Arrivals within this window coalesce into one processing pass.
  // 0 = process every loop iteration (lowest latency).
  std::uint32_t batch_window_us = 0;
  // Close connections with no traffic for this long. 0 = never.
  std::uint32_t idle_timeout_ms = 0;
  // Skip io_uring even when the kernel supports the network opcodes
  // (tests exercise the psync loop on uring-capable kernels this way).
  bool force_psync = false;
  // SQ size of each loop's ring (uring mode).
  std::uint32_t ring_entries = 256;

  // ---- QoS (wire v3) ----
  // Weighted round-robin dequeue credits per priority class, indexed by
  // wire::Priority (interactive, bulk, best-effort). A zero weight is
  // treated as 1: weights shape service order, shedding is the brownout
  // ladder's job, and every admitted class must make progress.
  std::array<std::uint32_t, wire::kNumPriorities> class_weights{8, 3, 1};
  // Per-tenant ceiling on queued requests across ALL loops (one shared
  // cross-thread ledger, so spraying connections over the SO_REUSEPORT
  // threads buys a tenant nothing); at the ceiling the tenant gets
  // kOverloaded (counted separately as tenant_rejects). 0 = no quota.
  std::uint32_t tenant_quota = 0;
  // Brownout ladder thresholds as percent occupancy of max_queue_depth.
  // At >= brownout_high_pct, incoming best-effort requests are shed; at
  // >= brownout_critical_pct, bulk arrivals are shed too and the batch
  // window collapses to zero so the backlog drains at minimum latency.
  // high must be <= critical; set a rung above 100 to disable it.
  std::uint32_t brownout_high_pct = 70;
  std::uint32_t brownout_critical_pct = 90;
};

// Aggregated across loops; also exported as <name>.* obs counters
// (net.* on a sampler shard).
struct ServerStats {
  std::uint64_t accepts = 0;
  std::uint64_t requests = 0;        // sample requests received
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t overload_sheds = 0;  // kOverloaded responses (all causes)
  std::uint64_t conn_timeouts = 0;   // idle-timeout closes
  std::uint64_t malformed = 0;       // kMalformed responses
  std::uint64_t socket_faults = 0;   // RS_FAULT-injected socket errors
  // Connections accepted and immediately closed at the max_connections
  // gate (the client sees EOF).
  std::uint64_t conn_rejects = 0;
  // kDeadlineExceeded responses: the deadline budget expired while the
  // request was queued, or its storage waits overran the remainder.
  std::uint64_t deadline_exceeded = 0;
  // kOverloaded responses caused by the per-tenant quota (a subset of
  // overload_sheds).
  std::uint64_t tenant_rejects = 0;
  // kOverloaded responses caused by the brownout ladder shedding the
  // request's class (a subset of overload_sheds).
  std::uint64_t brownout_sheds = 0;
};

// One loop's request handler. The loop decodes and admits a request,
// computes its absolute deadline and drops it if that passed while it
// was queued; the handler answers what survives.
class Handler {
 public:
  Handler() = default;
  virtual ~Handler() = default;
  Handler(const Handler&) = delete;
  Handler& operator=(const Handler&) = delete;

  // Prefix of the loop's metric names and its trace category: "net"
  // for a sampler shard. Must be a string literal, because trace events
  // keep the pointer.
  virtual const char* name() const = 0;

  // What kInfoRequest answers.
  virtual const wire::InfoResponse& info() const = 0;

  // Sets response->status and, on kOk, response->subgraph. deadline_ns
  // is the absolute obs::now_ns() deadline fixed at admission (0 =
  // none); it bounds the handler's waits. kMalformed means the request
  // was semantically invalid.
  virtual void sample(const wire::SampleRequest& request,
                      std::uint64_t deadline_ns,
                      wire::SampleResponse* response) = 0;
};

class Server {
 public:
  // Binds, spawns the event-loop threads, and returns once the service
  // is accepting. The sampler must outlive the server; its worker
  // contexts 0..options.threads-1 are owned by the loops for the
  // server's lifetime (don't run epochs concurrently).
  static Result<std::unique_ptr<Server>> start(core::RingSampler& sampler,
                                               const ServerOptions& options);
  // Runs one loop per handler; options.threads must equal
  // handlers.size().
  static Result<std::unique_ptr<Server>> start(
      std::vector<std::unique_ptr<Handler>> handlers,
      const ServerOptions& options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Stops accepting, drains loops, joins threads. Idempotent.
  void stop();

  // The bound port (resolves options.port == 0).
  std::uint16_t port() const { return port_; }
  // False when the psync poll(2) loop is serving (degraded or forced).
  bool using_uring() const { return using_uring_; }

  ServerStats stats() const;

  struct Loop;          // server.cpp; one per thread
  struct TenantLedger;  // server.cpp; one per server, shared by loops

 private:
  Server() = default;
  Status init(std::vector<std::unique_ptr<Handler>> handlers,
              const ServerOptions& options);

  ServerOptions options_;
  std::uint16_t port_ = 0;
  bool using_uring_ = false;
  std::atomic<bool> stop_flag_{false};
  bool stopped_ = false;
  // Cross-thread tenant quota ledger; null when no quota is configured.
  std::unique_ptr<TenantLedger> tenants_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;
};

}  // namespace rs::net
