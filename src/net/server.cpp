#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <deque>
#include <string>
#include <unordered_map>

#include "io/fault_inject.h"
#include "io/ring_stats_export.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "uring/probe.h"
#include "uring/ring.h"
#include "uring/uring_syscalls.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/sync.h"

namespace rs::net {

// Cross-thread tenant accounting (the "global quotas" headroom from
// ROADMAP item 4): one server-wide ledger instead of a per-loop map, so
// a tenant spraying connections across the SO_REUSEPORT loops — which
// the sharded router does by design when it multiplexes many tenants
// onto few shard connections — is capped by ONE number, not quota ×
// threads. Admission is check-and-increment under the mutex (two loops
// racing for the tenant's last slot must not both win); the lock is
// touched only when a quota is configured, is O(1) per request, and the
// sampling hot path never sees it.
struct Server::TenantLedger {
  explicit TenantLedger(std::uint32_t quota) : quota_(quota) {}

  bool try_admit(std::uint32_t tenant) {
    MutexLock lock(mutex_);
    const auto [it, inserted] = queued_.try_emplace(tenant, 0u);
    if (it->second >= quota_) return false;
    ++it->second;
    return true;
  }

  void release(std::uint32_t tenant) {
    MutexLock lock(mutex_);
    const auto it = queued_.find(tenant);
    if (it != queued_.end() && --it->second == 0) queued_.erase(it);
  }

 private:
  const std::uint32_t quota_;
  Mutex mutex_;
  std::unordered_map<std::uint32_t, std::uint32_t> queued_
      RS_GUARDED_BY(mutex_);
};
namespace {

// user_data layout: [63:56] tag | [55:32] conn slot | [31:0] slot
// generation. The generation makes completions self-identifying: a CQE
// for a connection whose slot was closed and reused carries a stale gen
// and is dropped instead of touching the new occupant's buffers.
constexpr std::uint64_t kTagAccept = 1;
constexpr std::uint64_t kTagRecv = 2;
constexpr std::uint64_t kTagSend = 3;
constexpr std::uint64_t kTagTick = 4;

std::uint64_t make_user_data(std::uint64_t tag, std::uint32_t slot,
                             std::uint32_t gen) {
  return (tag << 56) | (static_cast<std::uint64_t>(slot) << 32) | gen;
}
std::uint64_t user_data_tag(std::uint64_t ud) { return ud >> 56; }
std::uint32_t user_data_slot(std::uint64_t ud) {
  return static_cast<std::uint32_t>((ud >> 32) & 0xffffff);
}
std::uint32_t user_data_gen(std::uint64_t ud) {
  return static_cast<std::uint32_t>(ud);
}

constexpr std::size_t kRecvChunk = 64 * 1024;
// The loop never sleeps longer than this, bounding stop() latency and
// the idle-sweep granularity.
constexpr std::uint64_t kMaxWaitNs = 50'000'000;
// Period of the standing IORING_OP_TIMEOUT tick (uring mode).
constexpr std::uint64_t kTickNs = 10'000'000;

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::from_errno("fcntl(O_NONBLOCK)");
  }
  return Status::ok();
}

Result<int> make_listen_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::from_errno("socket");
  const int one = 1;
  // SO_REUSEPORT gives every loop thread its own accept queue on the
  // same port — the kernel load-balances connections, so no accept
  // handoff between threads is ever needed.
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    const Status status = Status::from_errno("setsockopt(SO_REUSE*)");
    ::close(fd);
    return status;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = INADDR_ANY;
  addr.sin_port = wire::host_to_be16(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::from_errno("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) < 0) {
    const Status status = Status::from_errno("listen");
    ::close(fd);
    return status;
  }
  RS_RETURN_IF_ERROR(set_nonblocking(fd));
  return fd;
}

Result<std::uint16_t> bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::from_errno("getsockname");
  }
  const std::uint8_t* p =
      reinterpret_cast<const std::uint8_t*>(&addr.sin_port);
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

struct NetMetrics {
  NetMetrics() = default;
  obs::Counter accepts;
  obs::Counter requests;
  obs::Counter bytes_rx;
  obs::Counter bytes_tx;
  obs::Counter overload_sheds;
  obs::Counter conn_timeouts;
  obs::Counter malformed;
  obs::Counter socket_faults;
  obs::Counter stats_scrapes;
  obs::Counter conn_rejects;
  obs::Counter deadline_exceeded;
  obs::Counter tenant_quota_rejects;
  obs::Counter brownout_sheds;
  obs::LatencyHistogram request_latency;
  // Per-stage server-side breakdown of a sample request's life:
  // decode -> queue wait -> sample (CPU + storage I/O) -> encode ->
  // send (staged to last byte on the wire) -> total (frame parsed to
  // last byte on the wire). These are what the kStats frame exposes to
  // remote scrapers and what bench/svc_load joins against client-side
  // latency in its SLO report.
  obs::LatencyHistogram stage_decode;
  obs::LatencyHistogram stage_queue_wait;
  obs::LatencyHistogram stage_sample;
  obs::LatencyHistogram stage_encode;
  obs::LatencyHistogram stage_send;
  obs::LatencyHistogram stage_total;
  // Per-priority-class decomposition of queue wait and end-to-end server
  // time (net.class.<class>.{queue_wait,total}_ns) — the histograms the
  // overload CI smoke asserts to prove interactive traffic outruns bulk
  // under the same saturation.
  std::array<obs::LatencyHistogram, wire::kNumPriorities> class_queue_wait;
  std::array<obs::LatencyHistogram, wire::kNumPriorities> class_total;

  // Registers every instrument under `prefix` (the handler's name()):
  // net.* on a sampler shard, router.front.* on the router frontend.
  // Registration is idempotent by name, so loops of one server share
  // the same registry slots.
  explicit NetMetrics(const std::string& prefix) {
    auto& reg = obs::Registry::global();
    accepts = reg.counter(prefix + ".accepts");
    requests = reg.counter(prefix + ".requests");
    bytes_rx = reg.counter(prefix + ".bytes_rx");
    bytes_tx = reg.counter(prefix + ".bytes_tx");
    overload_sheds = reg.counter(prefix + ".overload_sheds");
    conn_timeouts = reg.counter(prefix + ".conn_timeouts");
    malformed = reg.counter(prefix + ".malformed");
    socket_faults = reg.counter(prefix + ".socket_faults");
    stats_scrapes = reg.counter(prefix + ".stats_scrapes");
    conn_rejects = reg.counter(prefix + ".conn_rejects");
    deadline_exceeded = reg.counter(prefix + ".deadline_exceeded");
    tenant_quota_rejects = reg.counter(prefix + ".tenant_quota_rejects");
    brownout_sheds = reg.counter(prefix + ".brownout_sheds");
    request_latency = reg.histogram(prefix + ".request_latency_ns");
    stage_decode = reg.histogram(prefix + ".stage.decode_ns");
    stage_queue_wait = reg.histogram(prefix + ".stage.queue_wait_ns");
    stage_sample = reg.histogram(prefix + ".stage.sample_ns");
    stage_encode = reg.histogram(prefix + ".stage.encode_ns");
    stage_send = reg.histogram(prefix + ".stage.send_ns");
    stage_total = reg.histogram(prefix + ".stage.total_ns");
    for (std::size_t c = 0; c < wire::kNumPriorities; ++c) {
      const std::string class_prefix =
          prefix + ".class." +
          wire::priority_name(static_cast<wire::Priority>(c));
      class_queue_wait[c] = reg.histogram(class_prefix + ".queue_wait_ns");
      class_total[c] = reg.histogram(class_prefix + ".total_ns");
    }
  }
};

// Marks where one sample response ends in a connection's outbound byte
// stream. Responses are staged FIFO into tx_queue and sent in order, so
// "the response whose last byte just left" is always the front marker
// whose watermark the cumulative sent counter has reached — that is the
// send-stage completion event (net.stage.send_ns / total_ns, and the
// async trace span's 'e').
struct SendMarker {
  std::uint64_t watermark = 0;   // queued_bytes_total after staging
  std::uint64_t staged_ns = 0;   // response fully encoded
  std::uint64_t recv_ns = 0;     // request frame fully parsed
  std::uint64_t trace_id = 0;
  // Priority class, for the per-class total-time histogram closed here.
  wire::Priority priority = wire::Priority::kInteractive;
};

struct Conn {
  int fd = -1;
  std::uint32_t gen = 0;
  bool in_use = false;
  // shutdown() issued; the slot is freed once outstanding SQEs drain.
  bool closing = false;
  bool close_after_flush = false;
  unsigned outstanding = 0;  // in-flight SQEs referencing this slot
  bool recv_armed = false;
  bool send_armed = false;
  std::uint64_t last_activity_ns = 0;
  std::vector<std::uint8_t> rx;        // unparsed inbound bytes
  std::vector<std::uint8_t> tx;        // in flight; frozen while armed
  std::size_t tx_off = 0;
  std::vector<std::uint8_t> tx_queue;  // staged responses
  // Cumulative bytes ever staged into / drained out of this connection's
  // outbound stream. Every tx_queue append bumps queued_bytes_total (the
  // counters must cover *all* frames, not just sample responses, or the
  // watermarks drift); note_sent advances sent_bytes_total and pops
  // markers whose responses are now fully on the wire.
  std::uint64_t queued_bytes_total = 0;
  std::uint64_t sent_bytes_total = 0;
  std::deque<SendMarker> send_markers;
  // Stable recv target (Conn slots are preallocated and never move).
  std::array<std::uint8_t, kRecvChunk> rbuf;
};

struct PendingRequest {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  std::uint64_t enqueue_ns = 0;
  // Frame-parse timestamp: the start of the request's server-side life
  // (net.stage.total_ns measures from here to send completion).
  std::uint64_t recv_ns = 0;
  // Wire version of the request frame; the response echoes it so a v1
  // client never sees a v2 body.
  std::uint16_t version = wire::kWireVersion;
  // Absolute deadline (obs::now_ns clock), computed from the request's
  // relative deadline_ns budget at admission; 0 = no deadline.
  std::uint64_t deadline_ns = 0;
  wire::SampleRequest request;
};

// A sampler shard's handler: sample_for_serving on worker context
// `index`. The deadline bounds the pipeline's storage waits.
class SamplerHandler final : public Handler {
 public:
  SamplerHandler(core::RingSampler& sampler, std::uint32_t index)
      : sampler_(sampler), index_(index) {
    info_.num_nodes = sampler.num_nodes();
    info_.num_edges = sampler.num_edges();
    info_.max_batch = sampler.config().batch_size;
    info_.fanouts = sampler.config().fanouts;
  }

  const char* name() const override { return "net"; }
  const wire::InfoResponse& info() const override { return info_; }

  void sample(const wire::SampleRequest& request, std::uint64_t deadline_ns,
              wire::SampleResponse* response) override {
    auto result = sampler_.sample_for_serving(
        index_, request.nodes, request.fanouts, request.rng_seed,
        deadline_ns);
    if (result.is_ok()) {
      response->status = wire::WireStatus::kOk;
      response->subgraph = std::move(result).value();
    } else if (deadline_ns != 0 && obs::now_ns() >= deadline_ns) {
      // The pipeline aborted on the spent budget (kTimedOut).
      response->status = wire::WireStatus::kDeadlineExceeded;
    } else if (result.status().code() == ErrorCode::kInvalidArgument) {
      response->status = wire::WireStatus::kMalformed;
    } else {
      response->status = wire::WireStatus::kError;
      RS_WARN("serving: sampling failed: %s",
              result.status().to_string().c_str());
    }
  }

 private:
  core::RingSampler& sampler_;
  const std::uint32_t index_;
  wire::InfoResponse info_;
};

}  // namespace

// One event loop == one thread == one ring == one handler. All
// fields are owned by the loop thread; `stats` members are relaxed
// atomics so Server::stats() can snapshot them live.
struct Server::Loop {
  Server* server = nullptr;
  std::uint32_t index = 0;
  std::unique_ptr<Handler> handler;
  // handler->name(): trace category and metric prefix of this loop.
  const char* cat = nullptr;
  NetMetrics metrics;
  int listen_fd = -1;
  uring::Ring ring;            // valid only in uring mode
  bool use_uring = false;

  std::vector<Conn> conns;     // fixed size; addresses are stable
  std::vector<std::uint32_t> free_slots;
  // Admission queues, one deque per priority class, drained by weighted
  // round robin (pop_next). queued_total is the occupancy across all
  // classes — the number the depth gate and brownout ladder key on.
  std::array<std::deque<PendingRequest>, wire::kNumPriorities> queues;
  std::size_t queued_total = 0;
  // WRR cursor: class currently being served and its remaining credits.
  // Starts one rotation before class 0 so the first pop refills
  // interactive's credit.
  std::size_t wrr_class = wire::kNumPriorities - 1;
  std::uint32_t wrr_credit = 0;
  std::uint64_t batch_deadline_ns = 0;  // 0 = queue empty

  bool accept_armed = false;
  bool tick_armed = false;
  uring::KernelTimespec tick_ts{};  // must outlive its SQE

  // Socket-level fault injection (RS_FAULT fail_rate).
  bool faults_enabled = false;
  double fault_rate = 0.0;
  std::uint64_t faults_injected = 0;
  std::uint64_t max_faults = ~0ULL;
  Xoshiro256 fault_rng{1};

  std::atomic<std::uint64_t> accepts{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> overload_sheds{0};
  std::atomic<std::uint64_t> conn_timeouts{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> socket_faults{0};
  std::atomic<std::uint64_t> conn_rejects{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> tenant_rejects{0};
  std::atomic<std::uint64_t> brownout_sheds{0};

  ~Loop() {
    for (Conn& conn : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
  }

  const ServerOptions& options() const { return server->options_; }
  bool stop_requested() const {
    return server->stop_flag_.load(std::memory_order_acquire);
  }

  // Returns true when RS_FAULT says this socket op should fail.
  bool draw_socket_fault() {
    if (!faults_enabled || faults_injected >= max_faults) return false;
    if (fault_rng.uniform_double() >= fault_rate) return false;
    ++faults_injected;
    socket_faults.fetch_add(1, std::memory_order_relaxed);
    metrics.socket_faults.add();
    return true;
  }

  // ---- Connection slot management ----

  Conn* slot_for(std::uint64_t user_data) {
    const std::uint32_t slot = user_data_slot(user_data);
    if (slot >= conns.size()) return nullptr;
    Conn& conn = conns[slot];
    if (!conn.in_use || conn.gen != user_data_gen(user_data)) {
      return nullptr;  // stale completion for a recycled slot
    }
    return &conn;
  }

  void adopt_connection(int fd, std::uint64_t now) {
    accepts.fetch_add(1, std::memory_order_relaxed);
    metrics.accepts.add();
    if (free_slots.empty()) {
      // Connection-limit admission gate: accept-then-close so the
      // client sees a crisp EOF instead of a SYN backlog hang.
      conn_rejects.fetch_add(1, std::memory_order_relaxed);
      metrics.conn_rejects.add();
      ::close(fd);
      return;
    }
    // rs-lint: allow(void-discard) best-effort socket tuning; a conn that
    // stays blocking/Nagle'd still works, just slower
    (void)set_nonblocking(fd);
    const int one = 1;
    // rs-lint: allow(void-discard) see above
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    Conn& conn = conns[slot];
    ++conn.gen;
    conn.fd = fd;
    conn.in_use = true;
    conn.closing = false;
    conn.close_after_flush = false;
    conn.outstanding = 0;
    conn.recv_armed = false;
    conn.send_armed = false;
    conn.last_activity_ns = now;
    conn.rx.clear();
    conn.tx.clear();
    conn.tx_off = 0;
    conn.tx_queue.clear();
    conn.queued_bytes_total = 0;
    conn.sent_bytes_total = 0;
    conn.send_markers.clear();
    obs::trace_instant(cat, "accept");
  }

  void begin_close(Conn& conn) {
    if (conn.closing) return;
    conn.closing = true;
    // Wakes any in-flight recv/send with res=0/-EPIPE so outstanding
    // SQEs drain promptly; the fd itself closes in reap_closed().
    // rs-lint: allow(void-discard) shutdown on an already-dead peer
    // reports ENOTCONN, which is exactly the state we want anyway
    (void)::shutdown(conn.fd, SHUT_RDWR);
  }

  void reap_closed() {
    for (std::uint32_t slot = 0; slot < conns.size(); ++slot) {
      Conn& conn = conns[slot];
      if (conn.in_use && conn.closing && conn.outstanding == 0) {
        // Responses that never fully hit the wire: close their async
        // trace tracks so begin/end pairing survives dropped conns.
        for (const SendMarker& marker : conn.send_markers) {
          obs::trace_async_end(cat, "request", marker.trace_id);
        }
        conn.send_markers.clear();
        ::close(conn.fd);
        conn.fd = -1;
        conn.in_use = false;
        conn.rx.clear();
        conn.tx.clear();
        conn.tx_queue.clear();
        free_slots.push_back(slot);
      }
    }
  }

  void sweep_idle(std::uint64_t now) {
    if (options().idle_timeout_ms == 0) return;
    const std::uint64_t limit =
        std::uint64_t{options().idle_timeout_ms} * 1'000'000;
    for (Conn& conn : conns) {
      if (conn.in_use && !conn.closing &&
          now - conn.last_activity_ns > limit) {
        conn_timeouts.fetch_add(1, std::memory_order_relaxed);
        metrics.conn_timeouts.add();
        begin_close(conn);
      }
    }
  }

  // ---- QoS admission state ----

  std::uint32_t class_weight(std::size_t c) const {
    return std::max<std::uint32_t>(options().class_weights[c], 1);
  }

  // 0 = normal, 1 = shed best-effort arrivals, 2 = shed bulk arrivals
  // too and collapse the batch window. Keyed on queue occupancy, which
  // integrates sustained overload: a transient burst the queue absorbs
  // never climbs the ladder, a backlog that keeps growing does.
  int brownout_level() const {
    const std::uint64_t pct =
        queued_total * 100 / options().max_queue_depth;
    if (pct >= options().brownout_critical_pct) return 2;
    if (pct >= options().brownout_high_pct) return 1;
    return 0;
  }

  // Tenant admission against the server-wide ledger (check-and-
  // increment; see TenantLedger). The matching release happens exactly
  // once per admitted request: at pop (process_queue — including the
  // requester-hung-up path), at a post-admission shed (the depth gate
  // fires after the slot was taken), or at the shutdown drain.
  bool tenant_try_admit(std::uint32_t tenant) {
    if (server->tenants_ == nullptr) return true;
    return server->tenants_->try_admit(tenant);
  }

  void release_tenant(std::uint32_t tenant) {
    if (server->tenants_ == nullptr) return;
    server->tenants_->release(tenant);
  }

  // Weighted round-robin dequeue across the class queues: class c gets
  // up to class_weight(c) pops per rotation, so interactive leads every
  // pass without starving bulk or best-effort. Terminates within one
  // rotation — queued_total > 0 means some queue is non-empty, and each
  // hop refills the next class's credit.
  bool pop_next(PendingRequest* out) {
    if (queued_total == 0) return false;
    for (;;) {
      if (wrr_credit > 0 && !queues[wrr_class].empty()) {
        *out = std::move(queues[wrr_class].front());
        queues[wrr_class].pop_front();
        --wrr_credit;
        --queued_total;
        return true;
      }
      wrr_class = (wrr_class + 1) % wire::kNumPriorities;
      wrr_credit = class_weight(wrr_class);
    }
  }

  // ---- Protocol handling (engine-independent) ----

  // Every tx_queue append goes through here so the send-watermark
  // accounting in note_sent stays exact across all frame kinds.
  template <typename EncodeFn>
  void stage_frame(Conn& conn, EncodeFn&& encode) {
    const std::size_t before = conn.tx_queue.size();
    encode(conn.tx_queue);
    conn.queued_bytes_total += conn.tx_queue.size() - before;
  }

  void queue_response(Conn& conn, std::uint64_t request_id,
                      wire::WireStatus status,
                      std::uint16_t version = wire::kWireVersion,
                      std::uint64_t trace_id = 0) {
    wire::SampleResponse response;
    response.request_id = request_id;
    response.status = status;
    response.trace_id = trace_id;
    stage_frame(conn, [&](std::vector<std::uint8_t>& out) {
      wire::encode_sample_response(response, out, version);
    });
  }

  void handle_sample_request(Conn& conn, std::uint32_t slot,
                             std::span<const std::uint8_t> body,
                             std::uint16_t version, std::uint64_t now) {
    requests.fetch_add(1, std::memory_order_relaxed);
    metrics.requests.add();
    PendingRequest pending;
    pending.version = version;
    pending.recv_ns = now;
    Status decoded = Status::ok();
    {
      RS_OBS_SPAN(cat, "decode");
      const std::uint64_t t0 = obs::now_ns();
      decoded = wire::decode_sample_request(body, &pending.request, version);
      metrics.stage_decode.record_ns(obs::now_ns() - t0);
    }
    if (!decoded.is_ok()) {
      malformed.fetch_add(1, std::memory_order_relaxed);
      metrics.malformed.add();
      queue_response(conn, 0, wire::WireStatus::kMalformed, version);
      conn.close_after_flush = true;
      return;
    }
    const wire::Priority cls = pending.request.priority;
    // Brownout ladder: under sustained pressure, shed the classes that
    // declared themselves sheddable *before* the hard depth gate, so
    // interactive headroom survives the longest.
    const int level = brownout_level();
    if ((level >= 1 && cls == wire::Priority::kBestEffort) ||
        (level >= 2 && cls == wire::Priority::kBulk)) {
      brownout_sheds.fetch_add(1, std::memory_order_relaxed);
      metrics.brownout_sheds.add();
      overload_sheds.fetch_add(1, std::memory_order_relaxed);
      metrics.overload_sheds.add();
      queue_response(conn, pending.request.request_id,
                     wire::WireStatus::kOverloaded, version,
                     pending.request.trace_id);
      return;
    }
    if (!tenant_try_admit(pending.request.tenant_id)) {
      tenant_rejects.fetch_add(1, std::memory_order_relaxed);
      metrics.tenant_quota_rejects.add();
      overload_sheds.fetch_add(1, std::memory_order_relaxed);
      metrics.overload_sheds.add();
      queue_response(conn, pending.request.request_id,
                     wire::WireStatus::kOverloaded, version,
                     pending.request.trace_id);
      return;
    }
    if (queued_total >= options().max_queue_depth) {
      // The quota gate already took the tenant's slot; hand it back.
      release_tenant(pending.request.tenant_id);
      overload_sheds.fetch_add(1, std::memory_order_relaxed);
      metrics.overload_sheds.add();
      queue_response(conn, pending.request.request_id,
                     wire::WireStatus::kOverloaded, version,
                     pending.request.trace_id);
      return;
    }
    pending.slot = slot;
    pending.gen = conn.gen;
    pending.enqueue_ns = now;
    // Relative wire budget -> absolute server-clock deadline, fixed at
    // admission so queue wait spends the same budget storage waits do.
    // Saturating add: a hostile ~0 budget must not wrap to the past.
    pending.deadline_ns =
        pending.request.deadline_ns == 0
            ? 0
            : (pending.request.deadline_ns > ~0ULL - now
                   ? ~0ULL
                   : now + pending.request.deadline_ns);
    {
      // The request-scoped async track opens at admission and closes
      // when the response's last byte hits the wire (note_sent). The
      // flow arrow binds this slice to the sampling slice that later
      // picks the request up — possibly many loop iterations away.
      RS_OBS_SPAN(cat, "enqueue");
      obs::trace_async_begin(cat, "request", pending.request.trace_id);
      obs::trace_flow_begin(cat, "request", pending.request.trace_id);
    }
    queues[static_cast<std::size_t>(cls)].push_back(std::move(pending));
    ++queued_total;
    if (batch_deadline_ns == 0) {
      batch_deadline_ns =
          now + std::uint64_t{options().batch_window_us} * 1'000;
    }
  }

  void handle_info_request(Conn& conn, std::span<const std::uint8_t> body,
                           std::uint16_t version) {
    std::uint64_t request_id = 0;
    if (!wire::decode_info_request(body, &request_id).is_ok()) {
      malformed.fetch_add(1, std::memory_order_relaxed);
      metrics.malformed.add();
      queue_response(conn, 0, wire::WireStatus::kMalformed, version);
      conn.close_after_flush = true;
      return;
    }
    stage_frame(conn, [&](std::vector<std::uint8_t>& out) {
      wire::encode_info_response(handler->info(), out, version);
    });
  }

  // kStatsRequest (v2+): answer with the live metrics-registry snapshot
  // as JSON — counters (io.uring.* syscall accounting), gauges, and the
  // net.stage.* histograms — so a remote client can scrape the server's
  // internals without a sidecar or filesystem access. snapshot() takes
  // the registration mutex and allocates, but this path is rare (one
  // scrape per monitoring interval, not per request).
  void handle_stats_request(Conn& conn,
                            std::span<const std::uint8_t> body) {
    std::uint64_t request_id = 0;
    if (!wire::decode_stats_request(body, &request_id).is_ok()) {
      malformed.fetch_add(1, std::memory_order_relaxed);
      metrics.malformed.add();
      queue_response(conn, 0, wire::WireStatus::kMalformed);
      conn.close_after_flush = true;
      return;
    }
    metrics.stats_scrapes.add();
    wire::StatsResponse stats;
    stats.request_id = request_id;
    stats.json = obs::Registry::global().snapshot().to_json();
    stage_frame(conn, [&](std::vector<std::uint8_t>& out) {
      wire::encode_stats_response(stats, out);
    });
  }

  // Parses every complete frame in conn.rx; a malformed header poisons
  // the stream (a kMalformed response is flushed, then the conn closes).
  void parse_frames(Conn& conn, std::uint32_t slot, std::uint64_t now) {
    std::size_t consumed = 0;
    while (!conn.close_after_flush &&
           conn.rx.size() - consumed >= wire::kFrameHeaderBytes) {
      const std::span<const std::uint8_t> rest(conn.rx.data() + consumed,
                                               conn.rx.size() - consumed);
      wire::FrameHeader header;
      if (!wire::decode_frame_header(rest, &header).is_ok()) {
        malformed.fetch_add(1, std::memory_order_relaxed);
        metrics.malformed.add();
        queue_response(conn, 0, wire::WireStatus::kMalformed);
        conn.close_after_flush = true;
        consumed = conn.rx.size();
        break;
      }
      if (rest.size() < wire::kFrameHeaderBytes + header.body_len) {
        break;  // whole frame not here yet
      }
      const auto body =
          rest.subspan(wire::kFrameHeaderBytes, header.body_len);
      switch (header.kind) {
        case wire::FrameKind::kSampleRequest:
          handle_sample_request(conn, slot, body, header.version, now);
          break;
        case wire::FrameKind::kInfoRequest:
          handle_info_request(conn, body, header.version);
          break;
        case wire::FrameKind::kStatsRequest:
          handle_stats_request(conn, body);
          break;
        default:
          // A server only consumes requests; a response frame from a
          // client is a protocol violation.
          malformed.fetch_add(1, std::memory_order_relaxed);
          metrics.malformed.add();
          queue_response(conn, 0, wire::WireStatus::kMalformed,
                         header.version);
          conn.close_after_flush = true;
          break;
      }
      consumed += wire::kFrameHeaderBytes + header.body_len;
    }
    if (consumed > 0) {
      conn.rx.erase(conn.rx.begin(),
                    conn.rx.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
  }

  void on_bytes_received(Conn& conn, std::uint32_t slot,
                         const std::uint8_t* data, std::size_t n,
                         std::uint64_t now) {
    bytes_rx.fetch_add(n, std::memory_order_relaxed);
    metrics.bytes_rx.add(n);
    conn.last_activity_ns = now;
    conn.rx.insert(conn.rx.end(), data, data + n);
    parse_frames(conn, slot, now);
  }

  // Runs every admitted request through the handler in one pass,
  // dequeuing by class-weighted round robin. The per-request rng_seed
  // makes each response independent of the pass' composition, so
  // coalescing and reordering are invisible to clients (which match by
  // request_id). Requests whose deadline budget is already spent are
  // dropped here with kDeadlineExceeded — never sampled — and a request
  // that *finishes* past its deadline is answered kDeadlineExceeded
  // too, so an admitted request never completes late with kOk.
  void process_queue() {
    // One WRR rotation per pass. Every response staged in a pass rides
    // the same flush, so ordering *within* a pass is invisible to
    // clients — the weights only become latency once an over-credit
    // class is deferred to a later pass. Bounding the pass at one
    // rotation (the sum of the class weights) creates that deferral;
    // leftovers re-fire on the very next loop iteration (see the
    // batch_deadline_ns reset below).
    std::size_t quantum = 0;
    for (std::size_t c = 0; c < wire::kNumPriorities; ++c) {
      quantum += class_weight(c);
    }
    PendingRequest pending;
    while (quantum > 0 && pop_next(&pending)) {
      --quantum;
      const std::uint64_t trace_id = pending.request.trace_id;
      const auto cls = static_cast<std::size_t>(pending.request.priority);
      release_tenant(pending.request.tenant_id);
      Conn& conn = conns[pending.slot];
      if (!conn.in_use || conn.gen != pending.gen || conn.closing) {
        // Requester hung up while queued: close the request's trace
        // track so begin/end pairing survives dropped requests.
        obs::trace_flow_end(cat, "request", trace_id);
        obs::trace_async_end(cat, "request", trace_id);
        continue;
      }
      const std::uint64_t pickup_ns = obs::now_ns();
      const std::uint64_t queue_wait_ns = pickup_ns - pending.enqueue_ns;
      metrics.stage_queue_wait.record_ns(queue_wait_ns);
      metrics.class_queue_wait[cls].record_ns(queue_wait_ns);
      wire::SampleResponse response;
      response.request_id = pending.request.request_id;
      // v2 trailer (dropped from the encoding for v1 requesters): the
      // echoed trace id plus this request's server-side stage timings,
      // which svc_load joins against its client-side latency.
      response.trace_id = trace_id;
      response.server_queue_ns = queue_wait_ns;
      std::uint64_t sample_ns = 0;
      if (pending.deadline_ns != 0 && pickup_ns >= pending.deadline_ns) {
        // Expired while queued: drop at dequeue. The flow arrow ends
        // here — there is no sampling slice to land on.
        response.status = wire::WireStatus::kDeadlineExceeded;
        deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        metrics.deadline_exceeded.add();
        obs::trace_flow_end(cat, "request", trace_id);
      } else {
        {
          RS_OBS_SPAN(cat, "sample");
          // The flow arrow lands here: enqueue slice -> this slice.
          obs::trace_flow_end(cat, "request", trace_id);
          const std::uint64_t t0 = obs::now_ns();
          handler->sample(pending.request, pending.deadline_ns, &response);
          sample_ns = obs::now_ns() - t0;
        }
        metrics.stage_sample.record_ns(sample_ns);
        response.server_sample_ns = sample_ns;
        if (pending.deadline_ns != 0 &&
            obs::now_ns() >= pending.deadline_ns) {
          // Budget spent while the handler ran — whether it aborted or
          // its answer arrived just late, the answer the client
          // contracted for no longer exists.
          response.status = wire::WireStatus::kDeadlineExceeded;
          response.subgraph.layers.clear();
        }
        if (response.status == wire::WireStatus::kDeadlineExceeded) {
          deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
          metrics.deadline_exceeded.add();
        } else if (response.status == wire::WireStatus::kMalformed) {
          malformed.fetch_add(1, std::memory_order_relaxed);
          metrics.malformed.add();
        }
      }
      {
        RS_OBS_SPAN(cat, "encode");
        const std::uint64_t t0 = obs::now_ns();
        stage_frame(conn, [&](std::vector<std::uint8_t>& out) {
          wire::encode_sample_response(response, out, pending.version);
        });
        metrics.stage_encode.record_ns(obs::now_ns() - t0);
      }
      conn.send_markers.push_back(
          SendMarker{conn.queued_bytes_total, obs::now_ns(),
                     pending.recv_ns, trace_id, pending.request.priority});
      metrics.request_latency.record_ns(obs::now_ns() - pending.enqueue_ns);
    }
    // Drained: disarm so the next admission opens a fresh window.
    // Leftovers from a bounded pass: park the deadline in the past but
    // nonzero — admission must not re-arm a full window over requests
    // that already served their wait, and batch_due() fires again on
    // the next iteration, after this pass's responses are in flight.
    batch_deadline_ns = queued_total == 0 ? 0 : 1;
  }

  bool batch_due(std::uint64_t now) const {
    // Brownout level 2 collapses the batch window: coalescing trades
    // latency for wakeup amortization, exactly the wrong trade once the
    // backlog itself is the latency problem.
    return queued_total > 0 &&
           (options().batch_window_us == 0 || brownout_level() >= 2 ||
            now >= batch_deadline_ns);
  }

  // Nanoseconds the loop may sleep without missing the batch deadline.
  std::uint64_t wait_budget_ns(std::uint64_t now) const {
    std::uint64_t budget = kMaxWaitNs;
    if (queued_total > 0) {
      budget = batch_deadline_ns > now
                   ? std::min(budget, batch_deadline_ns - now)
                   : 0;
    }
    return budget;
  }

  // Moves staged bytes into the in-flight buffer when it is free.
  // Returns true when conn.tx has bytes ready to send.
  bool stage_tx(Conn& conn) {
    if (conn.tx_off == conn.tx.size()) {
      conn.tx.clear();
      conn.tx_off = 0;
      if (!conn.tx_queue.empty()) {
        conn.tx.swap(conn.tx_queue);
      }
    }
    return conn.tx_off < conn.tx.size();
  }

  void note_sent(Conn& conn, std::size_t n, std::uint64_t now) {
    bytes_tx.fetch_add(n, std::memory_order_relaxed);
    metrics.bytes_tx.add(n);
    conn.tx_off += n;
    conn.sent_bytes_total += n;
    conn.last_activity_ns = now;
    // Responses whose last byte is now on the wire: record the send
    // stage and the request's end-to-end server time, and close the
    // request-scoped trace track.
    while (!conn.send_markers.empty() &&
           conn.send_markers.front().watermark <= conn.sent_bytes_total) {
      const SendMarker marker = conn.send_markers.front();
      conn.send_markers.pop_front();
      metrics.stage_send.record_ns(now - marker.staged_ns);
      metrics.stage_total.record_ns(now - marker.recv_ns);
      metrics.class_total[static_cast<std::size_t>(marker.priority)]
          .record_ns(now - marker.recv_ns);
      obs::trace_async_end(cat, "request", marker.trace_id);
    }
    if (conn.close_after_flush && !stage_tx(conn)) {
      begin_close(conn);
    }
  }

  // ---- uring engine ----

  void arm_uring() {
    if (!accept_armed) {
      if (io_uring_sqe* sqe = ring.get_sqe()) {
        uring::Ring::prep_accept(sqe, listen_fd, nullptr, nullptr,
                                 SOCK_CLOEXEC,
                                 make_user_data(kTagAccept, 0, 0));
        accept_armed = true;
      }
    }
    if (!tick_armed) {
      if (io_uring_sqe* sqe = ring.get_sqe()) {
        tick_ts.tv_sec = 0;
        tick_ts.tv_nsec = static_cast<std::int64_t>(kTickNs);
        uring::Ring::prep_timeout(sqe, &tick_ts, 0, 0,
                                  make_user_data(kTagTick, 0, 0));
        tick_armed = true;
      }
    }
    for (std::uint32_t slot = 0; slot < conns.size(); ++slot) {
      Conn& conn = conns[slot];
      if (!conn.in_use || conn.closing) continue;
      if (!conn.send_armed && stage_tx(conn)) {
        if (io_uring_sqe* sqe = ring.get_sqe()) {
          uring::Ring::prep_send(
              sqe, conn.fd, conn.tx.data() + conn.tx_off,
              static_cast<unsigned>(conn.tx.size() - conn.tx_off),
              MSG_NOSIGNAL, make_user_data(kTagSend, slot, conn.gen));
          conn.send_armed = true;
          ++conn.outstanding;
        }
      }
      if (!conn.recv_armed && !conn.close_after_flush) {
        if (io_uring_sqe* sqe = ring.get_sqe()) {
          uring::Ring::prep_recv(sqe, conn.fd, conn.rbuf.data(),
                                 static_cast<unsigned>(conn.rbuf.size()),
                                 0,
                                 make_user_data(kTagRecv, slot, conn.gen));
          conn.recv_armed = true;
          ++conn.outstanding;
        }
      }
    }
  }

  void handle_cqe(const uring::Cqe& cqe, std::uint64_t now) {
    switch (user_data_tag(cqe.user_data)) {
      case kTagAccept: {
        accept_armed = false;
        if (cqe.res >= 0) adopt_connection(cqe.res, now);
        break;
      }
      case kTagTick:
        // -ETIME is the timer elapsing: the expected completion.
        tick_armed = false;
        break;
      case kTagRecv: {
        Conn* conn = slot_for(cqe.user_data);
        if (conn == nullptr) break;
        conn->recv_armed = false;
        --conn->outstanding;
        if (cqe.res <= 0 || draw_socket_fault()) {
          begin_close(*conn);  // EOF or error either way
          break;
        }
        on_bytes_received(*conn, user_data_slot(cqe.user_data),
                          conn->rbuf.data(),
                          static_cast<std::size_t>(cqe.res), now);
        break;
      }
      case kTagSend: {
        Conn* conn = slot_for(cqe.user_data);
        if (conn == nullptr) break;
        conn->send_armed = false;
        --conn->outstanding;
        if (cqe.res <= 0 || draw_socket_fault()) {
          begin_close(*conn);
          break;
        }
        note_sent(*conn, static_cast<std::size_t>(cqe.res), now);
        break;
      }
      default:
        break;
    }
  }

  void run_uring() {
    // Syscall accounting for the serving ring: the loop thread owns the
    // ring, so it alone flushes RingStats deltas into the registry
    // (io.uring.* globals + io.net.loop.enter_calls) — once per loop
    // iteration for live scraping and once after the drain for the tail.
    io::RingStatsExporter ring_stats_exporter(std::string(cat) + ".loop");
    std::array<uring::Cqe, 64> cqes;
    while (!stop_requested()) {
      arm_uring();
      if (auto submitted = ring.submit(); !submitted.is_ok()) {
        RS_WARN("serving loop %u: submit failed: %s", index,
                submitted.status().to_string().c_str());
      }
      std::uint64_t now = obs::now_ns();
      if (ring.cq_ready() == 0 && !batch_due(now)) {
        const std::uint64_t budget = wait_budget_ns(now);
        if (budget > 0) {
          // rs-lint: allow(void-discard) timeout and wakeup are both
          // success here; real submit errors surface via submit() above
          (void)ring.enter_getevents_timeout(1, budget);
        }
      }
      now = obs::now_ns();
      for (;;) {
        const unsigned n = ring.peek_batch(cqes);
        if (n == 0) break;
        for (unsigned i = 0; i < n; ++i) handle_cqe(cqes[i], now);
      }
      if (batch_due(now)) process_queue();
      sweep_idle(now);
      reap_closed();
      ring_stats_exporter.flush(ring.stats());
    }
    // Drain: wake blocked socket ops so their slots release, then let
    // ~Ring cancel anything still pending.
    for (Conn& conn : conns) {
      if (conn.in_use) begin_close(conn);
    }
    reap_closed();
    ring_stats_exporter.flush(ring.stats());
  }

  // ---- psync (poll(2)) engine: identical protocol, portable syscalls ----

  void drive_socket_io(Conn& conn, std::uint32_t slot, short revents,
                       std::uint64_t now) {
    if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (revents & POLLIN) == 0) {
      begin_close(conn);
      return;
    }
    if ((revents & POLLIN) != 0) {
      for (;;) {
        const ssize_t n =
            ::recv(conn.fd, conn.rbuf.data(), conn.rbuf.size(), 0);
        if (n > 0) {
          if (draw_socket_fault()) {
            begin_close(conn);
            return;
          }
          on_bytes_received(conn, slot, conn.rbuf.data(),
                            static_cast<std::size_t>(n), now);
          if (static_cast<std::size_t>(n) < conn.rbuf.size()) break;
          continue;
        }
        if (n == 0) {
          begin_close(conn);
          return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        begin_close(conn);
        return;
      }
    }
    flush_tx_psync(conn, now);
  }

  void flush_tx_psync(Conn& conn, std::uint64_t now) {
    while (!conn.closing && stage_tx(conn)) {
      const ssize_t n = ::send(conn.fd, conn.tx.data() + conn.tx_off,
                               conn.tx.size() - conn.tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        if (draw_socket_fault()) {
          begin_close(conn);
          return;
        }
        note_sent(conn, static_cast<std::size_t>(n), now);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      begin_close(conn);
      return;
    }
  }

  void run_psync() {
    std::vector<pollfd> pfds;
    std::vector<std::uint32_t> pfd_slots;
    while (!stop_requested()) {
      pfds.clear();
      pfd_slots.clear();
      pfds.push_back({listen_fd, POLLIN, 0});
      pfd_slots.push_back(0);
      for (std::uint32_t slot = 0; slot < conns.size(); ++slot) {
        Conn& conn = conns[slot];
        if (!conn.in_use || conn.closing) continue;
        short events = POLLIN;
        if (stage_tx(conn)) events |= POLLOUT;
        pfds.push_back({conn.fd, events, 0});
        pfd_slots.push_back(slot);
      }
      std::uint64_t now = obs::now_ns();
      const int timeout_ms = static_cast<int>(
          std::max<std::uint64_t>(wait_budget_ns(now) / 1'000'000, 1));
      const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
      now = obs::now_ns();
      if (ready > 0) {
        if ((pfds[0].revents & POLLIN) != 0) {
          for (;;) {
            const int fd =
                ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
            if (fd < 0) break;
            adopt_connection(fd, now);
          }
        }
        for (std::size_t i = 1; i < pfds.size(); ++i) {
          Conn& conn = conns[pfd_slots[i]];
          if (!conn.in_use || conn.closing) continue;
          if (pfds[i].revents != 0) {
            drive_socket_io(conn, pfd_slots[i], pfds[i].revents, now);
          }
        }
      }
      if (batch_due(now)) {
        process_queue();
        // Responses produced by the pass flush without another poll.
        for (Conn& conn : conns) {
          if (conn.in_use && !conn.closing) flush_tx_psync(conn, now);
        }
      }
      sweep_idle(now);
      reap_closed();
    }
    for (Conn& conn : conns) {
      if (conn.in_use) begin_close(conn);
    }
    reap_closed();
  }

  void run() {
    // Explicit begin/end pair (not a scoped X span) so the loop's whole
    // lifetime shows as one slice under which every per-request slice
    // nests; scripts/rs_lint.py's span-balance rule keeps the pairing
    // honest.
    obs::trace_span_begin(cat, "loop");
    if (use_uring) {
      run_uring();
    } else {
      run_psync();
    }
    // Requests still queued at shutdown never produce a response; close
    // their trace tracks so begin/end pairing stays exact in the dump.
    for (auto& class_queue : queues) {
      for (const PendingRequest& pending : class_queue) {
        release_tenant(pending.request.tenant_id);
        obs::trace_flow_end(cat, "request", pending.request.trace_id);
        obs::trace_async_end(cat, "request", pending.request.trace_id);
      }
      class_queue.clear();
    }
    queued_total = 0;
    obs::trace_span_end(cat, "loop");
  }
};

Result<std::unique_ptr<Server>> Server::start(core::RingSampler& sampler,
                                              const ServerOptions& options) {
  if (options.threads > sampler.config().num_threads) {
    return Status::invalid(
        "net: server threads exceed sampler worker contexts");
  }
  std::vector<std::unique_ptr<Handler>> handlers;
  for (std::uint32_t t = 0; t < options.threads; ++t) {
    handlers.push_back(std::make_unique<SamplerHandler>(sampler, t));
  }
  return start(std::move(handlers), options);
}

Result<std::unique_ptr<Server>> Server::start(
    std::vector<std::unique_ptr<Handler>> handlers,
    const ServerOptions& options) {
  auto server = std::unique_ptr<Server>(new Server());
  RS_RETURN_IF_ERROR(server->init(std::move(handlers), options));
  return server;
}

Status Server::init(std::vector<std::unique_ptr<Handler>> handlers,
                    const ServerOptions& options) {
  if (options.threads == 0) {
    return Status::invalid("net: threads must be > 0");
  }
  if (handlers.size() != options.threads) {
    return Status::invalid("net: need exactly one handler per thread");
  }
  if (options.max_connections == 0 || options.max_queue_depth == 0) {
    return Status::invalid(
        "net: max_connections and max_queue_depth must be > 0");
  }
  if (options.brownout_high_pct > options.brownout_critical_pct) {
    return Status::invalid(
        "net: brownout_high_pct must be <= brownout_critical_pct");
  }
  options_ = options;
  if (options.tenant_quota > 0) {
    tenants_ = std::make_unique<TenantLedger>(options.tenant_quota);
  }

  const uring::Features& features = uring::probe_features();
  using_uring_ = !options.force_psync && features.io_uring_available &&
                 features.net_ops_supported();
  if (!using_uring_ && !options.force_psync) {
    RS_WARN("net: kernel lacks io_uring network opcodes (%s); "
            "serving via poll(2) loop",
            features.to_string().c_str());
  }

  // RS_FAULT socket faults share the storage-fault grammar: fail_rate
  // applies per socket op, seed decorrelates loops deterministically.
  const bool faults = io::fault_injection_active();
  io::FaultConfig fault_config;
  if (faults) fault_config = io::active_fault_config();

  std::uint16_t port = options.port;
  for (std::uint32_t t = 0; t < options.threads; ++t) {
    auto loop = std::make_unique<Loop>();
    loop->server = this;
    loop->index = t;
    loop->handler = std::move(handlers[t]);
    loop->cat = loop->handler->name();
    loop->metrics = NetMetrics(loop->cat);
    loop->use_uring = using_uring_;
    RS_ASSIGN_OR_RETURN(loop->listen_fd, make_listen_socket(port));
    if (t == 0) {
      // Resolve an ephemeral port once; later loops bind the same one.
      RS_ASSIGN_OR_RETURN(port, bound_port(loop->listen_fd));
    }
    if (using_uring_) {
      uring::RingConfig ring_config;
      ring_config.entries = options.ring_entries;
      RS_ASSIGN_OR_RETURN(loop->ring, uring::Ring::create(ring_config));
    }
    loop->conns.resize(options.max_connections);
    for (std::uint32_t s = options.max_connections; s > 0; --s) {
      loop->free_slots.push_back(s - 1);
    }
    if (faults && fault_config.fail_rate > 0) {
      loop->faults_enabled = true;
      loop->fault_rate = fault_config.fail_rate;
      loop->max_faults = fault_config.max_faults;
      std::uint64_t sm = fault_config.seed ^ (0x6e65745fULL + t);
      loop->fault_rng = Xoshiro256(splitmix64(sm));
    }
    loops_.push_back(std::move(loop));
  }
  port_ = port;

  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->run(); });
  }
  RS_INFO("%s: serving on port %u (%s, %u threads)", loops_[0]->cat, port_,
          using_uring_ ? "io_uring" : "psync", options_.threads);
  return Status::ok();
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_flag_.store(true, std::memory_order_release);
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

ServerStats Server::stats() const {
  ServerStats total;
  for (const auto& loop : loops_) {
    total.accepts += loop->accepts.load(std::memory_order_relaxed);
    total.requests += loop->requests.load(std::memory_order_relaxed);
    total.bytes_rx += loop->bytes_rx.load(std::memory_order_relaxed);
    total.bytes_tx += loop->bytes_tx.load(std::memory_order_relaxed);
    total.overload_sheds +=
        loop->overload_sheds.load(std::memory_order_relaxed);
    total.conn_timeouts +=
        loop->conn_timeouts.load(std::memory_order_relaxed);
    total.malformed += loop->malformed.load(std::memory_order_relaxed);
    total.socket_faults +=
        loop->socket_faults.load(std::memory_order_relaxed);
    total.conn_rejects +=
        loop->conn_rejects.load(std::memory_order_relaxed);
    total.deadline_exceeded +=
        loop->deadline_exceeded.load(std::memory_order_relaxed);
    total.tenant_rejects +=
        loop->tenant_rejects.load(std::memory_order_relaxed);
    total.brownout_sheds +=
        loop->brownout_sheds.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace rs::net
