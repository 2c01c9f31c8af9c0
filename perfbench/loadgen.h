// The benchmark's load generator: closed and open loops over a seeded
// pool of sampling requests, driving either a sampler in-process
// (RingSampler::sample_for_serving) or a server over the wire
// (net::Client).
//
// Open loops never coordinate with the system under test: arrival times
// are drawn up front from a seeded Poisson process, every request is
// timed from its due time (so a stall is charged to every request it
// delays), several requests stay in flight per connection, and how late
// the generator itself sent is reported separately.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/subgraph.h"
#include "net/client.h"
#include "util/common.h"

namespace perfbench {

struct Request {
  std::vector<rs::NodeId> nodes;
  std::uint64_t rng_seed = 0;
};

// What one load phase measured. Latencies are in milliseconds; a failed
// request is recorded as +infinity so it misses every latency limit.
struct PhaseResult {
  double elapsed_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t neighbors = 0;
  std::vector<double> latency_ms;    // open loop: from due time
  std::vector<double> rtt_ms;        // from the actual send / call
  std::vector<double> late_ms;       // open loop: generator send lateness
};

// Remembers what the system answered for each pool entry: every answer
// for one entry must be identical (a response is a pure function of the
// request), and a seeded subset of entries keeps its full subgraph for
// a later byte-for-byte comparison against an independent reference.
class ResponseLog {
 public:
  ResponseLog(std::size_t pool_size, std::uint64_t seed);
  ResponseLog(const ResponseLog&) = delete;
  ResponseLog& operator=(const ResponseLog&) = delete;

  // Thread-safe. Returns false when `sample` disagrees with an earlier
  // answer for the same pool entry.
  bool record(std::size_t pool_index, const rs::core::MiniBatchSample& sample);

  // Pool entries whose full answer was kept (valid after the phases).
  std::vector<std::size_t> kept() const;
  const rs::core::MiniBatchSample& answer(std::size_t pool_index) const {
    return kept_[pool_index];
  }

 private:
  std::vector<bool> in_subset_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> digests_;  // 0 = unseen
  std::unique_ptr<std::atomic<bool>[]> stored_;
  std::vector<rs::core::MiniBatchSample> kept_;
};

// One blocking request: returns false on failure, adds the sampled
// neighbor count on success. `lane` is the calling thread's index.
using CallFn = std::function<bool(std::size_t lane, std::size_t request,
                                  std::uint64_t* neighbors)>;

// Closed loop: `lanes` threads each issue request after request (global
// index from a shared counter) until `seconds` pass or `max_requests`
// have been issued (0 = no cap).
PhaseResult run_closed(std::size_t lanes, double seconds,
                       std::uint64_t max_requests, const CallFn& call);

// Seeded Poisson arrival offsets (ns from phase start) at `rate` req/s
// over `seconds`.
std::vector<std::uint64_t> poisson_arrivals(double rate, double seconds,
                                            std::uint64_t seed);

// In-process open loop: `lanes` threads take requests in arrival order;
// a lane that reaches a request early waits until its due time (its
// oversleep is the generator lateness), one that reaches it late has
// queued behind busy lanes, which the latency from due time charges.
PhaseResult run_open_inprocess(std::size_t lanes,
                               const std::vector<std::uint64_t>& arrivals,
                               const CallFn& call);

// Network open loop over `clients` (request i goes to connection
// i % clients.size()). Each connection has a sender thread that writes
// requests at their due times and a receiver thread that reads the
// answers, so requests pipeline on every connection. `make` builds the
// wire request for arrival i (request_id must be i + 1); `check`
// validates an answered request and returns its neighbor count through
// the out-parameter, false on a wrong answer.
using MakeFn = std::function<rs::net::wire::SampleRequest(std::size_t)>;
using CheckFn = std::function<bool(
    std::size_t, const rs::net::wire::SampleResponse&, std::uint64_t*)>;
PhaseResult run_open_network(std::vector<rs::net::Client>& clients,
                             const std::vector<std::uint64_t>& arrivals,
                             const MakeFn& make, const CheckFn& check);

}  // namespace perfbench
