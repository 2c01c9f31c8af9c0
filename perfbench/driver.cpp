// perfbench_driver: runs one benchmark workload against RingSampler's
// public entry points and prints one JSON object of results as the last
// line of stdout. perfbench/run.py builds this binary, runs it and turns
// its output (plus the trace file of a traced run) into the benchmark's
// result line; see perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload serve_skewed --seed 3 --seconds 10
//       --trace 0 --data-dir .bench_build/data --work-dir .bench_build/run
//
// Entry points driven: core::RingSampler::open / run_epoch /
// sample_for_serving, net::Server::start, net::Client and
// router::Frontend::start. Per-layer numbers come from EpochResult, the
// obs registry and, with --trace 1, a separately traced phase.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/ring_sampler.h"
#include "gen/dataset.h"
#include "graph/binary_format.h"
#include "io/backend.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"
#include "router/frontend.h"
#include "util/argparse.h"
#include "util/fs.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using rs::NodeId;
using rs::core::EpochResult;
using rs::core::MiniBatchSample;
using rs::core::RingSampler;
using rs::core::SamplerConfig;

// One workload. Sizes are for the full benchmark; --tiny shrinks the
// graph (self-test) but keeps every phase and check. Both run the default
// SamplerConfig with kThreads workers, and serve on all of them.
struct Workload {
  const char* name;
  const char* profile;
  double scale;
  std::uint32_t epoch_targets;  // fixed epoch target-set size; 0 = none
  double hot_cache_of_edges;    // hot_cache_bytes / edge-file bytes
  std::uint32_t request_nodes;  // seed nodes per request
  bool degree_weighted;         // draw request nodes in proportion to degree
  int windows;                  // closed/open window pairs per segment
  // Fixed open-loop offered rate (req/s), a constant share of the
  // closed-loop capacity measured when the benchmark was defined. Never
  // re-derived per run, so a slower program queues more instead of
  // being offered less.
  double open_rate;
};

const Workload kWorkloads[] = {
    // The graph fits in memory and no program cache is funded: per-item
    // planning and per-SQE CPU decide the time. The on-demand windows
    // issue Fig. 6's single-target requests on the sampler's workers.
    {.name = "epoch_buffered", .profile = "friendster-s", .scale = 0.25,
     .epoch_targets = 4096, .hot_cache_of_edges = 0.0, .request_nodes = 1,
     .degree_weighted = false, .windows = 5, .open_rate = 500.0},
    // 4-node {20,15,10} requests with per-request seeds, nodes drawn in
    // proportion to degree, a hot-neighbor cache of 1% of the edge file;
    // served on the sampler's workers. Its per-layer run also drives the
    // same requests through router::Frontend over two net::Server shards.
    {.name = "serve_skewed", .profile = "ogbn-papers-s", .scale = 0.25,
     .epoch_targets = 0, .hot_cache_of_edges = 0.01, .request_nodes = 4,
     .degree_weighted = true, .windows = 8, .open_rate = 160.0},
};

// Sampler workers, and the closed- and open-loop threads (lane l serves
// on worker l): the machine's 4 vCPUs.
constexpr std::uint32_t kThreads = 4;
const std::vector<std::uint32_t> kRequestFanouts = {20, 15, 10};
constexpr std::size_t kPoolSize = 4096;
constexpr int kSetupRepeats = 9;
constexpr int kSegments = 3;  // each on a freshly opened sampler
constexpr int kTracedEpochs = 1;
constexpr std::uint64_t kTracedRequests = 400;
// Requests per pass, the serving analogue of an epoch over a fixed work
// set: epoch_s on the serving workload is the closed-loop time of one
// pass.
constexpr std::size_t kPassRequests = 64;
// The routed tier of serve_skewed's per-layer run: shard servers behind
// the router, each with one loop waiting for completions in the kernel
// (busy-poll loops would hold a vCPU each), a closed loop on two
// connections, then an open loop at a fixed rate on one.
constexpr int kShards = 2;
constexpr std::uint32_t kRoutedLanes = 2;
constexpr double kRoutedClosedS = 1.0;
constexpr double kRoutedOpenS = 3.0;
constexpr double kRoutedRate = 150.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_reference = false;
  std::string data_dir = ".bench_build/data";
  std::string work_dir = ".bench_build/run";
};

[[noreturn]] void die(const std::string& what, const rs::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.to_string().c_str());
  std::exit(1);
}

template <typename T>
T must(rs::Result<T> result, const std::string& what) {
  if (!result.is_ok()) die(what, result.status());
  return std::move(result).value();
}

bool same_sample(const MiniBatchSample& a, const MiniBatchSample& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].targets != b.layers[l].targets ||
        a.layers[l].sample_begin != b.layers[l].sample_begin ||
        a.layers[l].neighbors != b.layers[l].neighbors) {
      return false;
    }
  }
  return true;
}

// Progress on stderr: each step's name and how long it took.
class Step {
 public:
  explicit Step(const char* name) : name_(name) {}
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;
  ~Step() {
    std::fprintf(stderr, "perfbench: %s took %.2fs\n", name_,
                 timer_.elapsed_seconds());
  }

 private:
  const char* name_;
  rs::WallTimer timer_;
};

// --- inputs ----------------------------------------------------------

std::vector<NodeId> pick_targets(NodeId num_nodes, std::size_t count,
                                 std::uint64_t seed) {
  count = std::min<std::size_t>(count, num_nodes);
  std::vector<NodeId> all(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) all[v] = v;
  rs::Xoshiro256 rng(seed ^ 0x7a26e75ULL);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.uniform(num_nodes - i)]);
  }
  all.resize(count);
  return all;
}

// Request nodes are drawn uniformly, or in proportion to degree: the
// source of a uniformly drawn edge (`offsets` is the graph's offset
// index, num_nodes + 1 entries).
std::vector<Request> make_pool(const std::vector<rs::EdgeIdx>& offsets,
                               const Workload& w, std::uint64_t seed) {
  const auto num_nodes = static_cast<NodeId>(offsets.size() - 1);
  rs::Xoshiro256 rng(seed ^ 0x9e0011ULL);
  std::vector<Request> pool(kPoolSize);
  for (Request& request : pool) {
    for (std::uint32_t k = 0; k < w.request_nodes; ++k) {
      NodeId node = static_cast<NodeId>(rng.uniform(num_nodes));
      if (w.degree_weighted) {
        const rs::EdgeIdx edge = rng.uniform(offsets.back());
        node = static_cast<NodeId>(
            std::upper_bound(offsets.begin(), offsets.end(), edge) -
            offsets.begin() - 1);
      }
      request.nodes.push_back(node);
    }
    request.rng_seed = rng();
  }
  return pool;
}

rs::net::wire::SampleRequest wire_request(const Request& request,
                                          std::uint64_t id) {
  rs::net::wire::SampleRequest out;
  out.request_id = id;
  out.trace_id = id;
  out.rng_seed = request.rng_seed;
  out.nodes = request.nodes;
  out.fanouts = kRequestFanouts;
  return out;
}

// --- run state -------------------------------------------------------

struct Run {
  Args args;
  const Workload* workload = nullptr;
  std::string graph;
  std::uint64_t edge_bytes = 0;
  std::vector<rs::EdgeIdx> offsets;  // the graph's offset index
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::atomic<std::uint64_t> mismatches{0};  // wrong answers
  std::vector<std::string> problems;  // reasons the run is not correct

  // Trace bookkeeping handed to run.py.
  std::string trace_path;
  double trace_units = 0;
  const char* trace_unit = "epoch";
  std::size_t trace_capacity = 0;

  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    problems.push_back(why);
  }
  void count(const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
  }
};

SamplerConfig base_config(const Run& run) {
  SamplerConfig config;
  config.num_threads = kThreads;
  config.seed = run.args.seed;
  config.hot_cache_bytes = static_cast<std::uint64_t>(
      static_cast<double>(run.edge_bytes) * run.workload->hot_cache_of_edges);
  return config;
}

std::unique_ptr<RingSampler> open_sampler(const Run& run,
                                          const SamplerConfig& config) {
  return must(RingSampler::open(run.graph, config), "RingSampler::open");
}

// Trace ring size for `events` expected events. Every recording thread
// gets a ring this large, so one thread may record them all.
std::size_t trace_capacity_for(std::uint64_t events) {
  return static_cast<std::size_t>(std::max<std::uint64_t>(events * 2, 4096));
}

// --- per-layer metric blocks -----------------------------------------

// Storage-path ratios from registry counts of the measured work, each
// with its base.
void add_registry_layers(Run& run, const RegistryCounts& d) {
  const double enters = d.counter("io.uring.enter_calls");
  const double cqes = d.counter("io.uring.cqes_reaped");
  const double read_ops = d.counter("pipeline.read_ops");
  const double neighbors = d.counter("sampler.sampled_neighbors");
  const double groups = d.counter("pipeline.groups");
  const double fixed = d.counter("io.fixed_reads");
  const double fixed_base = fixed + d.counter("io.fixed_fallbacks");
  MetricSet& m = run.metrics;
  m.add("uring.sqes_per_enter",
        ratio(d.counter("io.uring.sqes_submitted"), enters), "ratio");
  m.add("uring.enter_calls", enters, "count");
  m.add("uring.peek_spins_per_cqe",
        ratio(d.counter("io.uring.peek_spins"), cqes), "ratio");
  m.add("uring.cqes_reaped", cqes, "count");
  m.add("io.retries_per_kop",
        ratio(d.counter("io.retries"), read_ops / 1000.0), "1/kop");
  m.add("io.read_ops", read_ops, "count");
  m.add("io.fixed_read_share", ratio(fixed, fixed_base), "ratio");
  m.add("io.fixed_read_base", fixed_base, "count");
  m.add("plan.read_ops_per_edge", ratio(read_ops, neighbors), "ratio");
  m.add("plan.bytes_per_edge",
        ratio(d.counter("pipeline.bytes_read"), neighbors), "B");
  m.add("plan.sampled_edges", neighbors, "count");
  m.add("pipeline.items_per_group", ratio(d.counter("pipeline.items"), groups),
        "ratio");
  m.add("pipeline.groups", groups, "count");
}

// net.* and router.* layers from the always-on histograms and counters
// of the open-loop phases; zero where the workload has no server or no
// router.
void add_serving_layers(Run& run, const RegistryCounts& d,
                        const PhaseResult& open) {
  MetricSet& m = run.metrics;
  const auto queue = d.histogram("net.stage.queue_wait_ns");
  const auto sample = d.histogram("net.stage.sample_ns");
  const auto send = d.histogram("net.stage.send_ns");
  const double requests = d.counter("net.requests");
  m.add("net.decode_ms_p50", hist_ms(d.histogram("net.stage.decode_ns"), 50),
        "ms");
  m.add("net.queue_wait_ms_p50", hist_ms(queue, 50), "ms");
  m.add("net.queue_wait_ms_p99", hist_ms(queue, 99), "ms");
  m.add("net.sample_ms_p50", hist_ms(sample, 50), "ms");
  m.add("net.sample_ms_p99", hist_ms(sample, 99), "ms");
  m.add("net.encode_ms_p50", hist_ms(d.histogram("net.stage.encode_ns"), 50),
        "ms");
  m.add("net.send_ms_p50", hist_ms(send, 50), "ms");
  m.add("net.send_ms_p99", hist_ms(send, 99), "ms");
  m.add("net.enters_per_request",
        ratio(d.counter("io.net.loop.enter_calls"), requests), "ratio");
  m.add("net.shed_frac", ratio(d.counter("net.overload_sheds"), requests),
        "ratio");
  m.add("net.requests", requests, "count");

  const auto hop = d.histogram("router.hop_ns");
  const auto routed = d.histogram("router.sample_ns");
  double shard_rtt_p99 = 0.0;
  for (int shard = 0; shard < kShards; ++shard) {
    shard_rtt_p99 = std::max(
        shard_rtt_p99,
        hist_ms(d.histogram("router.shard." + std::to_string(shard) +
                            ".rtt_ns"),
                99));
  }
  const double router_requests = d.counter("router.requests");
  m.add("router.hop_ms_p50", hist_ms(hop, 50), "ms");
  m.add("router.hop_ms_p99", hist_ms(hop, 99), "ms");
  m.add("router.shard_rtt_ms_p99", shard_rtt_p99, "ms");
  m.add("router.subrequests_per_request",
        ratio(d.counter("router.subrequests"), router_requests), "ratio");
  m.add("router.frontend_ms_p50",
        routed.count == 0 ? 0.0
                          : percentile(open.rtt_ms, 50) - hist_ms(routed, 50),
        "ms");
  m.add("router.resends",
        d.counter("router.hedges") + d.counter("router.retries") +
            d.counter("router.failovers"),
        "count");
  m.add("router.requests", router_requests, "count");
}

// Per-completion device latency, recorded only while io timing is on
// (the traced phase); merged over every backend's histogram.
void add_io_completion_layers(Run& run, const RegistryCounts& d) {
  rs::obs::HistogramSnapshot merged;
  const std::string suffix = ".completion_latency_ns";
  for (const auto& [name, hist] : d.histograms) {
    if (name.rfind("io.", 0) != 0 || name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    merged.count += hist.count;
    merged.sum_ns += hist.sum_ns;
    for (std::size_t b = 0; b < merged.buckets.size(); ++b) {
      merged.buckets[b] += hist.buckets[b];
    }
  }
  run.metrics.add("io.completion_us_p50",
                  static_cast<double>(merged.percentile_ns(50)) / 1e3, "us");
  run.metrics.add("io.completion_us_p99",
                  static_cast<double>(merged.percentile_ns(99)) / 1e3, "us");
  run.metrics.add("io.completions_timed", static_cast<double>(merged.count),
                  "count");
}

// Events a traced repeat of some work records, from registry counts of
// the same work done untraced: every pipeline group records prepare,
// submit and drain spans plus a few ring waits, every ring enter at
// most one submit or wait span, every batch a batch span and one per
// layer, every request a handful of net/router/bench spans, async
// marks and flows.
std::uint64_t expected_trace_events(const RegistryCounts& d,
                                    double work_fraction) {
  const double events =
      6 * d.counter("pipeline.groups") + 2 * d.counter("io.uring.enter_calls") +
      8 * d.counter("sampler.batches") + 16 * d.counter("net.requests") +
      8 * d.counter("router.subrequests");
  return static_cast<std::uint64_t>(events * work_fraction) + 1024;
}

void start_traced_phase(Run& run, std::uint64_t expected_events) {
  run.trace_path = run.args.work_dir + "/trace.json";
  run.trace_capacity = trace_capacity_for(expected_events);
  rs::io::set_io_timing(true);
  const rs::Status status =
      rs::obs::trace_start(run.trace_path, run.trace_capacity);
  if (!status.is_ok()) die("trace_start", status);
}

void stop_traced_phase() {
  const rs::Status status = rs::obs::trace_stop();
  rs::io::set_io_timing(false);
  if (!status.is_ok()) die("trace_stop", status);
}

// --- measured phases -------------------------------------------------

// Seeded Poisson arrivals at the workload's fixed offered rate; every
// segment of a run gets its own arrival sequence.
std::vector<std::uint64_t> open_arrivals(const Run& run, double seconds,
                                         int segment) {
  return poisson_arrivals(run.workload->open_rate, seconds,
                          run.args.seed * 0x9e3779b97f4a7c15ULL + 17 +
                              static_cast<std::uint64_t>(segment));
}

void append(PhaseResult& into, const PhaseResult& from) {
  into.elapsed_s += from.elapsed_s;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.neighbors += from.neighbors;
  into.latency_ms.insert(into.latency_ms.end(), from.latency_ms.begin(),
                         from.latency_ms.end());
  into.rtt_ms.insert(into.rtt_ms.end(), from.rtt_ms.begin(),
                     from.rtt_ms.end());
  into.late_ms.insert(into.late_ms.end(), from.late_ms.begin(),
                      from.late_ms.end());
}

// Everything a run's segments measured. A run is split into segments,
// each on a freshly opened sampler, and its serving part into short
// windows; the end-to-end numbers are medians over epochs and windows.
struct Totals {
  std::vector<double> setup_s;      // every timed setup
  std::vector<double> open_s;       // RingSampler::open share of it
  std::vector<double> unit_s;       // each epoch / pass per closed window
  std::vector<double> edges_per_s;  // each epoch / per closed window
  std::vector<double> rps;          // per closed-loop window
  std::vector<double> open_p50;     // per open-loop window
  std::vector<double> open_p90;     // per open-loop window
  PhaseResult closed;               // all closed loops
  PhaseResult open;                 // all open loops
  RegistryCounts storage;           // over the epochs / serving windows
  std::uint64_t hot_hits = 0;
  std::uint64_t hot_lookups = 0;

  void add_closed(Run& run, const PhaseResult& phase) {
    run.count(phase);
    rps.push_back(static_cast<double>(phase.attempted - phase.failed) /
                  phase.elapsed_s);
    append(closed, phase);
  }
  void add_open(Run& run, const PhaseResult& phase) {
    run.count(phase);
    open_p50.push_back(percentile(phase.latency_ms, 50));
    open_p90.push_back(percentile(phase.latency_ms, 90));
    append(open, phase);
  }
};

// Progress on stderr: what the latest window measured.
void log_window(const Totals& t) {
  std::fprintf(stderr,
               "perfbench: window: %.1f req/s closed, open p50 %.3fms p90 "
               "%.3fms\n",
               t.rps.back(), t.open_p50.back(), t.open_p90.back());
}

void add_end_to_end(Run& run, const Totals& t) {
  MetricSet& m = run.metrics;
  m.add("setup_s", median(t.setup_s), "s");
  m.add("epoch_s", median(t.unit_s), "s");
  m.add("edges_per_s", median(t.edges_per_s), "1/s");
  m.add("rps", median(t.rps), "1/s");
  // Timed from each request's due time; a failed request is +inf and so
  // misses every latency limit.
  m.add("p50_ms", median(t.open_p50), "ms");
  m.add("p90_ms", median(t.open_p90), "ms");
  // Reported per layer: on a shared 4-vCPU machine the 1% tail follows
  // other tenants' load more than the program (see README).
  m.add("p99_ms", percentile(t.open.latency_ms, 99), "ms");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_common_layers(Run& run, const Totals& t, double cache_bytes) {
  MetricSet& m = run.metrics;
  add_registry_layers(run, t.storage);
  m.add("cache.hot_hit_rate",
        ratio(static_cast<double>(t.hot_hits),
              static_cast<double>(t.hot_lookups)),
        "ratio");
  m.add("cache.hot_lookups", static_cast<double>(t.hot_lookups), "count");
  m.add("cache.bytes", cache_bytes, "B");
  m.add("sampler.open_s", median(t.open_s), "s");
  m.add("gen.late_ms_p99", percentile(t.open.late_ms, 99), "ms");
  m.add("gen.open_requests", static_cast<double>(t.open.attempted), "count");
  std::vector<double> rtts;
  for (const double v : t.closed.rtt_ms) {
    if (std::isfinite(v)) rtts.push_back(v);
  }
  m.add("client.rtt_ms_p50", median(rtts), "ms");
}

void add_failure_layers(Run& run) {
  run.metrics.add("failed_frac",
                  ratio(static_cast<double>(run.failed),
                        static_cast<double>(run.attempted)),
                  "ratio");
  run.metrics.add("attempted_ops", static_cast<double>(run.attempted),
                  "count");
}

// Compares kept answers against `reference` (the answer an independent
// path gives for a pool entry). With --corrupt-reference the first
// reference is altered, which must fail the run: proof that the gate
// can fail.
void check_answers(Run& run, const ResponseLog& log,
                   const std::function<rs::Result<MiniBatchSample>(
                       std::size_t)>& reference) {
  bool corrupt = run.args.corrupt_reference;
  std::size_t checked = 0;
  for (const std::size_t p : log.kept()) {
    auto expected = reference(p);
    if (!expected.is_ok()) {
      run.fail("reference answer: " + expected.status().to_string());
      return;
    }
    MiniBatchSample want = std::move(expected).value();
    if (corrupt && !want.layers.empty() &&
        !want.layers.back().neighbors.empty()) {
      want.layers.back().neighbors[0] ^= 1;
      corrupt = false;
    }
    ++checked;
    if (!same_sample(log.answer(p), want)) {
      ++run.mismatches;
      run.fail("answer for request pool entry " + std::to_string(p) +
               " differs from the reference");
    }
  }
  if (checked == 0) run.fail("no answers were kept for the reference check");
}

// --- the routed tier (per-layer run of serve_skewed) ----------------

// Everything one routed setup starts. Members are destroyed in reverse
// order: the frontend before the servers, the servers before the
// samplers they serve from.
struct Tier {
  std::vector<std::unique_ptr<RingSampler>> samplers;
  std::vector<std::unique_ptr<rs::net::Server>> servers;
  std::unique_ptr<rs::router::Frontend> frontend;
};

// Opens the shard samplers (kernel-side completion waits, one worker
// each), starts a server on each and the router frontend over them.
std::unique_ptr<Tier> start_tier(Run& run, SamplerConfig config) {
  config.num_threads = 1;
  config.backend = rs::io::BackendKind::kUring;
  auto tier = std::make_unique<Tier>();
  rs::router::FrontendOptions frontend;
  for (int s = 0; s < kShards; ++s) {
    tier->samplers.push_back(open_sampler(run, config));
    rs::net::ServerOptions options;
    options.threads = 1;
    tier->servers.push_back(
        must(rs::net::Server::start(*tier->samplers.back(), options),
             "net::Server::start"));
    frontend.router.map.shards.push_back(
        {rs::router::Endpoint{"127.0.0.1", tier->servers.back()->port()}});
    if (!tier->servers.back()->using_uring()) {
      run.fail("a server fell back to the psync poll loop");
    }
  }
  tier->frontend =
      must(rs::router::Frontend::start(frontend), "Frontend::start");
  return tier;
}

std::vector<rs::net::Client> connect_clients(std::uint16_t port,
                                             std::size_t count) {
  std::vector<rs::net::Client> clients;
  rs::net::ClientOptions options;
  options.port = port;
  options.connect_retry_ms = 5000;
  for (std::size_t i = 0; i < count; ++i) {
    clients.push_back(must(rs::net::Client::connect(options), "connect"));
  }
  return clients;
}

// The same request pool through router::Frontend over kShards
// net::Server shards: a closed loop, then an open loop at kRoutedRate
// whose always-on net.* / router.* histograms give those layers. Routed
// answers must equal, byte for byte, what shard 0 answers directly.
void run_routed_layers(Run& run, const SamplerConfig& config,
                       const std::vector<Request>& pool) {
  Step step("routed phase");
  const std::unique_ptr<Tier> tier = start_tier(run, config);
  ResponseLog log(pool.size(), run.args.seed);
  auto accept = [&](std::size_t i, const rs::net::wire::SampleResponse& r,
                    std::uint64_t* count) {
    if (r.status != rs::net::wire::WireStatus::kOk || r.trace_id != i + 1) {
      return false;
    }
    if (!log.record(i % pool.size(), r.subgraph)) {
      ++run.mismatches;
      return false;
    }
    *count = r.subgraph.total_sampled_neighbors();
    return true;
  };
  std::vector<rs::net::Client> clients =
      connect_clients(tier->frontend->port(), kRoutedLanes);
  const CallFn call = [&](std::size_t lane, std::size_t i,
                          std::uint64_t* count) {
    auto response =
        clients[lane].sample(wire_request(pool[i % pool.size()], i + 1));
    return response.is_ok() && accept(i, response.value(), count);
  };
  run.count(run_closed(kRoutedLanes, kRoutedClosedS, 0, call));

  std::vector<rs::net::Client> open_clients =
      connect_clients(tier->frontend->port(), 1);
  const RegistryCounts before = RegistryCounts::now();
  const PhaseResult open = run_open_network(
      open_clients,
      poisson_arrivals(kRoutedRate, kRoutedOpenS, run.args.seed ^ 0x7077edULL),
      [&](std::size_t i) {
        return wire_request(pool[i % pool.size()], i + 1);
      },
      accept);
  run.count(open);
  add_serving_layers(run, RegistryCounts::now().since(before), open);

  rs::net::ClientOptions options;
  options.port = tier->servers.front()->port();
  rs::net::Client direct =
      must(rs::net::Client::connect(options), "connect to shard 0");
  check_answers(run, log, [&](std::size_t p) -> rs::Result<MiniBatchSample> {
    auto response = direct.sample(wire_request(pool[p], p + 1));
    if (!response.is_ok()) return response.status();
    if (response.value().status != rs::net::wire::WireStatus::kOk) {
      return rs::Status::internal("shard 0 refused the reference request");
    }
    return std::move(response).value().subgraph;
  });
}

// --- the measured workload ------------------------------------------

void run_workload(Run& run) {
  const Workload& w = *run.workload;
  const Args& args = run.args;
  const SamplerConfig config = base_config(run);
  const bool epochs = w.epoch_targets > 0;
  const double segment_s = args.seconds / kSegments;
  Totals t;

  // Setup: several timed opens (offset index, workspaces, caches); the
  // last sampler is kept for the first segment.
  std::unique_ptr<RingSampler> sampler;
  auto reopen = [&] {
    sampler.reset();
    rs::WallTimer timer;
    sampler = open_sampler(run, config);
    t.setup_s.push_back(timer.elapsed_seconds());
    t.open_s.push_back(t.setup_s.back());
  };
  for (int r = 0; r < kSetupRepeats; ++r) reopen();

  std::size_t target_count = w.epoch_targets;
  if (args.tiny) target_count = std::max<std::size_t>(target_count / 16, 64);
  const std::vector<NodeId> targets =
      epochs ? pick_targets(sampler->num_nodes(), target_count, args.seed)
             : std::vector<NodeId>{};
  const std::vector<Request> pool = make_pool(run.offsets, w, args.seed);
  ResponseLog log(pool.size(), args.seed);

  // Each segment's epoch checksums in order: a fresh sampler restarts
  // the same sequence, so all are prefixes of the reference's.
  std::vector<std::vector<std::uint64_t>> sequences;
  auto epoch = [&](EpochResult* out) {
    RS_OBS_SPAN("bench", "epoch");
    auto result = sampler->run_epoch(targets);
    ++run.attempted;
    if (!result.is_ok()) {
      ++run.failed;
      run.fail("run_epoch: " + result.status().to_string());
      return false;
    }
    sequences.back().push_back(result.value().checksum);
    *out = result.value();
    return true;
  };
  // On-demand requests on the sampler's workers: lane l calls
  // sample_for_serving on worker context l.
  const CallFn call = [&](std::size_t lane, std::size_t i,
                          std::uint64_t* count) {
    const Request& request = pool[i % pool.size()];
    auto sample = sampler->sample_for_serving(
        static_cast<std::uint32_t>(lane), request.nodes, kRequestFanouts,
        request.rng_seed);
    if (!sample.is_ok()) return false;
    if (!log.record(i % pool.size(), sample.value())) {
      ++run.mismatches;
      return false;
    }
    *count = sample.value().total_sampled_neighbors();
    return true;
  };

  double prepare_s = 0, drain_s = 0;
  std::size_t timed_epochs = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    if (seg > 0) reopen();
    sequences.emplace_back();
    if (epochs) {
      EpochResult result;
      // The first epoch after materializing warms the page cache.
      if (seg == 0 && !epoch(&result)) return;
      // Epochs for 60% of the segment, at least two.
      const RegistryCounts before = RegistryCounts::now();
      rs::WallTimer phase;
      for (int n = 0; n < 2 || phase.elapsed_seconds() < segment_s * 0.6;
           ++n) {
        if (!epoch(&result)) return;
        t.unit_s.push_back(result.seconds);
        t.edges_per_s.push_back(
            static_cast<double>(result.sampled_neighbors) / result.seconds);
        prepare_s += result.prepare_seconds;
        drain_s += result.drain_seconds;
        ++timed_epochs;
      }
      t.storage.add(RegistryCounts::now().since(before));
    }

    // The on-demand part in short closed/open window pairs: the host's
    // interference comes in bursts, which the medians over windows leave
    // out.
    const RegistryCounts before_serving = RegistryCounts::now();
    const std::uint64_t hot_hits = sampler->hot_cache().hits();
    const std::uint64_t hot_misses = sampler->hot_cache().misses();
    const double window_s = segment_s * (epochs ? 0.4 : 1.0) / w.windows;
    for (int win = 0; win < w.windows; ++win) {
      const PhaseResult closed = run_closed(kThreads, window_s * 0.5, 0, call);
      if (!epochs) {
        t.unit_s.push_back(closed.elapsed_s * kPassRequests /
                           static_cast<double>(closed.attempted));
        t.edges_per_s.push_back(static_cast<double>(closed.neighbors) /
                                closed.elapsed_s);
      }
      t.add_closed(run, closed);
      t.add_open(run, run_open_inprocess(
                          kThreads,
                          open_arrivals(run, window_s * 0.5,
                                        seg * w.windows + win),
                          call));
      log_window(t);
    }
    if (!epochs) t.storage.add(RegistryCounts::now().since(before_serving));
    t.hot_hits += sampler->hot_cache().hits() - hot_hits;
    t.hot_lookups += sampler->hot_cache().hits() - hot_hits +
                     sampler->hot_cache().misses() - hot_misses;
  }
  add_end_to_end(run, t);

  if (args.trace) {
    Step step("per-layer phase");
    add_common_layers(
        run, t, static_cast<double>(sampler->hot_cache().cached_bytes()));
    const RegistryCounts before = RegistryCounts::now();
    if (epochs) {
      const double n = static_cast<double>(timed_epochs);
      run.metrics.add("pipeline.prepare_s", prepare_s / n, "s");
      run.metrics.add("pipeline.drain_s", drain_s / n, "s");
      // A traced repeat of kTracedEpochs epochs for span self times.
      start_traced_phase(run,
                         expected_trace_events(t.storage, kTracedEpochs / n));
      std::vector<double> traced_s;
      for (int e = 0; e < kTracedEpochs; ++e) {
        EpochResult result;
        if (!epoch(&result)) break;
        traced_s.push_back(result.seconds);
      }
      stop_traced_phase();
      run.metrics.add("trace.overhead_frac",
                      median(traced_s) / median(t.unit_s) - 1, "ratio");
      run.trace_units = static_cast<double>(traced_s.size());
      run.trace_unit = "epoch";
    } else {
      // A traced repeat of the closed loop for span self times.
      const std::uint64_t traced = args.tiny ? 64 : kTracedRequests;
      start_traced_phase(
          run, expected_trace_events(
                   t.storage, static_cast<double>(traced) /
                                  static_cast<double>(t.closed.attempted +
                                                      t.open.attempted)));
      const PhaseResult traced_loop = run_closed(kThreads, 1e9, traced, call);
      stop_traced_phase();
      run.count(traced_loop);
      const double traced_rps =
          static_cast<double>(traced_loop.attempted) / traced_loop.elapsed_s;
      run.metrics.add("trace.overhead_frac", median(t.rps) / traced_rps - 1,
                      "ratio");
      run.trace_units = static_cast<double>(traced_loop.attempted);
      run.trace_unit = "request";
    }
    add_io_completion_layers(run, RegistryCounts::now().since(before));
  }

  // Reference: the same config and seed on the psync backend, opened
  // after the measured sampler is gone (untimed, outside setup_s).
  sampler.reset();
  {
    Step step("reference");
    SamplerConfig ref_config = config;
    ref_config.backend = rs::io::BackendKind::kPsync;
    ref_config.register_buffers = rs::io::FixedBufferMode::kOff;
    const std::unique_ptr<RingSampler> ref = open_sampler(run, ref_config);
    std::vector<std::uint64_t> expected;
    for (const auto& sequence : sequences) {
      while (expected.size() < sequence.size()) {
        auto result = ref->run_epoch(targets);
        if (!result.is_ok()) {
          run.fail("reference epoch: " + result.status().to_string());
          return;
        }
        expected.push_back(result.value().checksum);
        if (args.corrupt_reference && expected.size() == 1) expected[0] ^= 1;
      }
      for (std::size_t e = 0; e < sequence.size(); ++e) {
        if (sequence[e] != expected[e]) {
          ++run.mismatches;
          ++run.failed;
          run.fail("epoch " + std::to_string(e) +
                   " checksum differs from the psync reference");
        }
      }
    }
    check_answers(run, log, [&](std::size_t p) {
      return ref->sample_for_serving(0, pool[p].nodes, kRequestFanouts,
                                     pool[p].rng_seed);
    });
  }

  if (args.trace) {
    if (epochs) {
      // No server or router here: their layers report 0.
      add_serving_layers(run, RegistryCounts{}, PhaseResult{});
    } else {
      run_routed_layers(run, config, pool);
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Fixed mmap threshold: left dynamic, glibc adapts it to early
  // allocation order and timings flip between two modes ~10% apart.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  rs::set_log_level(rs::LogLevel::kWarn);

  Run run;
  Args& args = run.args;
  std::uint64_t trace = 0;
  rs::ArgParser parser("perfbench_driver",
                       "runs one benchmark workload (see perfbench/README.md)");
  parser.add_string("workload", &args.workload, "workload name");
  parser.add_uint("seed", &args.seed, "input seed");
  parser.add_double("seconds", &args.seconds, "measured seconds");
  parser.add_uint("trace", &trace, "1 = per-layer run with a traced phase");
  parser.add_flag("tiny", &args.tiny, "shrink graphs (self-test)");
  parser.add_flag("corrupt-reference", &args.corrupt_reference,
                  "alter one reference answer; the run must fail");
  parser.add_string("data-dir", &args.data_dir, "dataset cache directory");
  parser.add_string("work-dir", &args.work_dir, "scratch directory (trace)");
  const rs::Status parsed = parser.parse(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.to_string().c_str(),
                 parser.usage().c_str());
    return 2;
  }
  args.trace = trace != 0;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) run.workload = &w;
  }
  if (run.workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& dir : {args.data_dir, args.work_dir}) {
    const rs::Status made = rs::make_dirs(dir);
    if (!made.is_ok()) die("create " + dir, made);
  }

  // Materialize the graph before any clock starts.
  const auto profile = must(rs::gen::profile_by_name(run.workload->profile),
                            "dataset profile");
  const double scale = run.workload->scale * (args.tiny ? 0.05 : 1.0);
  run.graph = must(rs::gen::materialize_dataset(
                       rs::gen::scaled_profile(profile, scale), args.data_dir),
                   "materialize dataset");
  const auto meta = must(rs::graph::read_meta(run.graph), "read graph meta");
  run.edge_bytes = meta.num_edges * rs::kEdgeEntryBytes;

  run.offsets = must(rs::graph::load_offsets(run.graph), "load offsets");
  run_workload(run);

  if (args.trace) add_failure_layers(run);
  // A silent uring -> psync downgrade would measure another program.
  if (RegistryCounts::now().counter("io.backend_downgrades") > 0) {
    run.fail("an io_uring backend was downgraded to psync");
  }
  if (run.mismatches.load() > 0 && run.problems.empty()) {
    run.fail("answers differed between requests for the same input");
  }
  const bool correct = run.problems.empty();
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"env\":%s,"
      "\"metrics\":%s,\"trace\":{\"path\":\"%s\",\"units\":%.17g,"
      "\"unit\":\"%s\",\"capacity\":%zu}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed),
      environment_json().c_str(), run.metrics.to_json().c_str(),
      run.trace_path.c_str(), run.trace_units, run.trace_unit,
      run.trace_capacity);
  return correct ? 0 : 1;
}
